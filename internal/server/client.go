package server

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Client is a wire-protocol connection to a prefserve server. One
// request/response turn runs at a time (Query/Stream/Insert/Set hold an
// internal mutex); Cancel may be called concurrently from any goroutine
// to abort the turn in flight. Notices (e.g. the drain announcement)
// are collected and readable via Notices.
type Client struct {
	nc net.Conn
	wc *wire.Conn

	turn sync.Mutex // one request/response exchange at a time

	mu      sync.Mutex
	notices []string
}

// Dial connects to a server address.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (tests use net.Pipe).
func NewClient(nc net.Conn) *Client {
	return &Client{nc: nc, wc: wire.NewConn(nc)}
}

// Close sends a quit frame and closes the connection.
func (c *Client) Close() error {
	c.wc.WriteFrame(wire.FrameQuit, nil)
	c.wc.Flush()
	return c.nc.Close()
}

// Abandon closes the raw connection without the quit handshake —
// the rude disconnect tests simulate a vanished client with it.
func (c *Client) Abandon() error { return c.nc.Close() }

// Cancel asks the server to cancel the in-flight turn. Safe to call
// concurrently with a blocked Query/Stream: wire writes serialize at
// frame granularity.
func (c *Client) Cancel() error {
	if err := c.wc.WriteFrame(wire.FrameCancel, nil); err != nil {
		return err
	}
	return c.wc.Flush()
}

// Notices drains the asynchronous notices received so far.
func (c *Client) Notices() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.notices
	c.notices = nil
	return out
}

// Resultset is one query's decoded answer.
type Resultset struct {
	// Header carries the snapshot pin and column layout.
	Header wire.Header
	// Cols holds the column-major values, Cols[c][i] = row i, column c.
	Cols [][]pref.Value
	// Partial is the degraded-result report ("" when complete).
	Partial string
}

// Len returns the row count.
func (r *Resultset) Len() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return len(r.Cols[0])
}

// Row materializes row i across the columns.
func (r *Resultset) Row(i int) relation.Row {
	row := make(relation.Row, len(r.Cols))
	for c := range r.Cols {
		row[c] = r.Cols[c][i]
	}
	return row
}

// Rows materializes every row.
func (r *Resultset) Rows() []relation.Row {
	rows := make([]relation.Row, r.Len())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	return rows
}

// readFrame reads one frame, absorbing notices.
func (c *Client) readFrame() (byte, []byte, error) {
	for {
		typ, payload, err := c.wc.ReadFrame()
		if err != nil {
			return 0, nil, err
		}
		if typ == wire.FrameNotice {
			c.mu.Lock()
			c.notices = append(c.notices, string(payload))
			c.mu.Unlock()
			continue
		}
		return typ, payload, nil
	}
}

// asServerError lifts an error frame into *wire.ServerError.
func asServerError(payload []byte) error {
	se, err := wire.DecodeError(payload)
	if err != nil {
		return err
	}
	return se
}

// Query executes one statement and decodes the full columnar result.
func (c *Client) Query(stmt string) (*Resultset, error) {
	c.turn.Lock()
	defer c.turn.Unlock()
	if err := c.wc.WriteFrame(wire.FrameQuery, []byte(stmt)); err != nil {
		return nil, err
	}
	if err := c.wc.Flush(); err != nil {
		return nil, err
	}
	return c.readResult()
}

// readResult decodes a batch result: header, column frames, ready.
// A bare ready (no header) — PREPARE/DEALLOCATE acks — returns an
// empty Resultset.
func (c *Client) readResult() (*Resultset, error) {
	rs := &Resultset{}
	seenHeader := false
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case wire.FrameError:
			return nil, asServerError(payload)
		case wire.FrameHeader:
			if rs.Header, err = wire.DecodeHeader(payload); err != nil {
				return nil, err
			}
			seenHeader = true
			rs.Cols = make([][]pref.Value, len(rs.Header.Cols))
		case wire.FrameColumn:
			if !seenHeader {
				return nil, fmt.Errorf("client: column frame before header")
			}
			col, vals, err := wire.DecodeColumn(payload, int(rs.Header.NRows))
			if err != nil {
				return nil, err
			}
			if col >= len(rs.Cols) {
				return nil, fmt.Errorf("client: column %d out of range", col)
			}
			rs.Cols[col] = vals
		case wire.FrameReady:
			ready, err := wire.DecodeReady(payload)
			if err != nil {
				return nil, err
			}
			rs.Partial = ready.Partial
			return rs, nil
		default:
			return nil, fmt.Errorf("client: unexpected frame %q in result", typ)
		}
	}
}

// Stream executes one statement progressively: yield receives each row
// as it arrives and returns false to stop early (the client cancels the
// turn and drains it). It returns the decoded header and the number of
// rows received.
func (c *Client) Stream(stmt string, yield func(relation.Row) bool) (wire.Header, int, error) {
	c.turn.Lock()
	defer c.turn.Unlock()
	if err := c.wc.WriteFrame(wire.FrameStream, []byte(stmt)); err != nil {
		return wire.Header{}, 0, err
	}
	if err := c.wc.Flush(); err != nil {
		return wire.Header{}, 0, err
	}
	var hdr wire.Header
	seenHeader, stopped, n := false, false, 0
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return hdr, n, err
		}
		switch typ {
		case wire.FrameError:
			err := asServerError(payload)
			if stopped {
				// The cancel raced ahead of the server's tail; the turn is
				// over either way and the caller asked to stop.
				if se, ok := err.(*wire.ServerError); ok && se.Code == wire.CodeCancelled {
					return hdr, n, nil
				}
			}
			return hdr, n, err
		case wire.FrameHeader:
			if hdr, err = wire.DecodeHeader(payload); err != nil {
				return hdr, n, err
			}
			seenHeader = true
		case wire.FrameRowBatch:
			if !seenHeader {
				return hdr, n, fmt.Errorf("client: row-batch frame before header")
			}
			rows, err := wire.DecodeRowBatch(payload, len(hdr.Cols))
			if err != nil {
				return hdr, n, err
			}
			for _, row := range rows {
				if stopped {
					break // draining rows already in flight
				}
				n++
				if !yield(row) {
					stopped = true
					if err := c.Cancel(); err != nil {
						return hdr, n, err
					}
				}
			}
		case wire.FrameReady:
			return hdr, n, nil
		default:
			return hdr, n, fmt.Errorf("client: unexpected frame %q in stream", typ)
		}
	}
}

// Insert appends one row to a server table, returning its new length.
func (c *Client) Insert(table string, row relation.Row) (int, error) {
	c.turn.Lock()
	defer c.turn.Unlock()
	payload, err := wire.EncodeInsert(table, row)
	if err != nil {
		return 0, err
	}
	if err := c.wc.WriteFrame(wire.FrameInsert, payload); err != nil {
		return 0, err
	}
	if err := c.wc.Flush(); err != nil {
		return 0, err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return 0, err
	}
	switch typ {
	case wire.FrameError:
		return 0, asServerError(payload)
	case wire.FrameInsertOK:
		if len(payload) != 8 {
			return 0, fmt.Errorf("client: insert ack of %d bytes", len(payload))
		}
		n := 0
		for _, b := range payload {
			n = n<<8 | int(b)
		}
		return n, nil
	}
	return 0, fmt.Errorf("client: unexpected frame %q after insert", typ)
}

// Set assigns one session option (key=value) on the server.
func (c *Client) Set(key, value string) error {
	c.turn.Lock()
	defer c.turn.Unlock()
	if err := c.wc.WriteFrame(wire.FrameSet, []byte(key+"="+value)); err != nil {
		return err
	}
	if err := c.wc.Flush(); err != nil {
		return err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return err
	}
	switch typ {
	case wire.FrameError:
		return asServerError(payload)
	case wire.FrameReady:
		return nil
	}
	return fmt.Errorf("client: unexpected frame %q after set", typ)
}

// Stats asks the server for a status report: its cumulative counters
// followed by the storage tier's entries (buffer-pool hit rate, WAL
// size, per-shard segment bytes) when the server persists to disk.
func (c *Client) Stats() ([]wire.Stat, error) {
	c.turn.Lock()
	defer c.turn.Unlock()
	if err := c.wc.WriteFrame(wire.FrameStats, nil); err != nil {
		return nil, err
	}
	if err := c.wc.Flush(); err != nil {
		return nil, err
	}
	var stats []wire.Stat
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case wire.FrameError:
			return nil, asServerError(payload)
		case wire.FrameStatus:
			if stats, err = wire.DecodeStatus(payload); err != nil {
				return nil, err
			}
		case wire.FrameReady:
			return stats, nil
		default:
			return nil, fmt.Errorf("client: unexpected frame %q after stats", typ)
		}
	}
}

// RawFrame sends an arbitrary frame and flushes — the protocol-abuse
// tests craft malformed turns with it.
func (c *Client) RawFrame(typ byte, payload []byte) error {
	if err := c.wc.WriteFrame(typ, payload); err != nil {
		return err
	}
	return c.wc.Flush()
}

// ReadRaw reads one raw frame — protocol-abuse tests inspect the
// server's reaction directly.
func (c *Client) ReadRaw() (byte, []byte, error) { return c.wc.ReadFrame() }
