// Package wire is the Preference SQL serving protocol: length-prefixed
// frames over a byte stream, statements in, columnar result frames out.
// A frame is a 4-byte big-endian length followed by a 1-byte type and the
// payload; results travel as one header frame (column names, types, the
// pinned snapshot version) plus one data frame per column, so a client
// can decode straight into column arrays. Values travel in the store's
// tagged codec (store.AppendValue/ReadValue): the bytes of a value in a
// frame are its bytes in a WAL record or a row page, and wire has no
// value encoding of its own. Errors are typed by a short
// machine-readable code (overload, timeout, cancellation, parse …) so
// clients can distinguish "try again later" from "fix the statement"
// without string matching. The package owns only the encoding; session
// semantics live in internal/server.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/relation/store"
)

// Frame types, client to server.
const (
	// FrameQuery carries one Preference SQL statement; the server answers
	// with a columnar result (header + column frames) and a ready frame.
	FrameQuery = byte('Q')
	// FrameStream carries a statement to execute progressively: rows come
	// back in row-batch frames as they are confirmed.
	FrameStream = byte('T')
	// FrameInsert carries a row to append to a named table.
	FrameInsert = byte('I')
	// FrameSet carries a session option assignment "key=value".
	FrameSet = byte('S')
	// FrameCancel asks the server to cancel the session's in-flight query.
	FrameCancel = byte('C')
	// FrameQuit announces an orderly disconnect.
	FrameQuit = byte('X')
	// FrameStats asks for a server status report (buffer-pool hit rate,
	// WAL and segment sizes, session counters); the server answers with
	// one status frame and a ready frame.
	FrameStats = byte('A')
)

// Frame types, server to client.
const (
	// FrameHeader opens a result: snapshot pin, row count, column layout.
	FrameHeader = byte('H')
	// FrameColumn carries one whole result column.
	FrameColumn = byte('D')
	// FrameRowBatch carries streamed result rows (uvarint row count, then
	// the rows back to back, each as store.AppendRow encodes it) — large
	// results amortize the per-frame header and the per-flush syscall
	// across a whole chunk instead of paying them per row. The first
	// streamed row goes out as a one-row batch, flushed alone.
	FrameRowBatch = byte('b')
	// FrameInsertOK acknowledges an insert with the table's new row count.
	FrameInsertOK = byte('K')
	// FrameReady closes a request/response turn: the query (or insert, or
	// set) is done and the session accepts the next frame.
	FrameReady = byte('Z')
	// FrameError reports a typed failure; it also closes the turn.
	FrameError = byte('E')
	// FrameNotice carries an asynchronous server notice (e.g. drain).
	FrameNotice = byte('N')
	// FrameStatus answers a stats frame: ordered key/value pairs.
	FrameStatus = byte('V')
)

// Error codes carried by FrameError.
const (
	// CodeParse: the statement failed to parse.
	CodeParse = "PARSE"
	// CodeExec: the statement failed during execution.
	CodeExec = "EXEC"
	// CodeOverload: admission control shed the query (typed
	// *engine.OverloadError server-side); try again later.
	CodeOverload = "OVERLOAD"
	// CodeTimeout: the query exceeded its deadline.
	CodeTimeout = "TIMEOUT"
	// CodeCancelled: the query was cancelled (client cancel frame or
	// disconnect).
	CodeCancelled = "CANCELLED"
	// CodeProtocol: the client sent a malformed or unexpected frame; the
	// server closes the connection after sending it.
	CodeProtocol = "PROTOCOL"
	// CodeTooLarge: the statement (or frame) exceeded the server's size
	// bound.
	CodeTooLarge = "TOO_LARGE"
	// CodeShutdown: the server is draining and accepts no new queries.
	CodeShutdown = "SHUTDOWN"
	// CodeSet: a session option assignment was invalid.
	CodeSet = "SET"
	// CodeInsert: an insert was rejected (unknown table, arity, type).
	CodeInsert = "INSERT"
)

// MaxFrame bounds any frame's payload; a peer announcing more is
// malformed and the connection is closed. It is deliberately generous —
// result columns of six-figure row counts fit — while still refusing
// absurd lengths before allocating.
const MaxFrame = 1 << 26

// ServerError is a typed failure from the server, reconstructed
// client-side from an error frame.
type ServerError struct {
	// Code is one of the Code* constants.
	Code string
	// Msg is the human-readable cause.
	Msg string
}

// Error implements error.
func (e *ServerError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

// Conn frames a byte stream. Reads and writes are independently
// buffered; WriteFrame does not flush (batch a turn's frames, then
// Flush). A Conn's reader must be used from one goroutine at a time;
// writes may come from several (a cancel racing a query) and serialize
// internally.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer

	wmu sync.Mutex
}

// NewConn wraps a byte stream (typically a net.Conn) for framing.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReaderSize(rw, 1<<16), w: bufio.NewWriterSize(rw, 1<<16)}
}

// ReadFrame reads one frame: its type byte and payload.
func (c *Conn) ReadFrame() (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d outside [1, %d]", n, MaxFrame)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// WriteFrame appends one frame to the write buffer (no flush).
func (c *Conn) WriteFrame(t byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds %d", len(payload), MaxFrame)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = t
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(payload)
	return err
}

// Write appends already-framed bytes — frames assembled with BeginFrame
// and EndFrame — to the write buffer (no flush).
func (c *Conn) Write(frames []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.w.Write(frames)
	return err
}

// BeginFrame appends the header of a frame of type t to buf, its length
// left for EndFrame to fill in; the payload is appended after it.
func BeginFrame(buf []byte, t byte) []byte {
	return append(buf, 0, 0, 0, 0, t)
}

// EndFrame completes the frame BeginFrame began at offset start of buf
// (the buffer's length before the call), writing its length. It fails
// when the payload exceeds MaxFrame, as WriteFrame does.
func EndFrame(buf []byte, start int) error {
	n := len(buf) - start - 4 // the type byte and the payload
	if n > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds %d", n-1, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:start+4], uint32(n))
	return nil
}

// Flush pushes buffered frames to the peer.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.Flush()
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ReadString decodes a uvarint-length-prefixed string.
func ReadString(buf []byte) (string, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || uint64(len(buf)-k) < n {
		return "", nil, fmt.Errorf("wire: truncated string")
	}
	return string(buf[k : k+int(n)]), buf[k+int(n):], nil
}

// StreamRows marks a header frame whose row count is unknown: rows
// follow in row-batch frames until the ready frame.
const StreamRows = ^uint32(0)

// Col is one result column's name and declared type.
type Col struct {
	// Name is the column name.
	Name string
	// Type is the declared column type.
	Type relation.Type
}

// Header is a decoded result-header frame.
type Header struct {
	// SnapVersion is the pinned snapshot's generation (flat tables: the
	// relation version; sharded: the table's count of inserts and
	// reshards at the cut). It strictly increases with every mutation of
	// the table, so equal versions of one table mean the same rows.
	SnapVersion uint64
	// SnapLen is the pinned snapshot's total row count — with a single
	// sequential writer it identifies the exact insert-history prefix the
	// query evaluated over, which is what the torture tests check.
	SnapLen uint64
	// NRows is the result row count, or StreamRows for a progressive
	// result delivered in row-batch frames.
	NRows uint32
	// Cols is the result column layout.
	Cols []Col
}

// EncodeHeader encodes a result-header payload.
func EncodeHeader(h Header) []byte {
	return AppendHeader(make([]byte, 0, 32+16*len(h.Cols)), h)
}

// AppendHeader appends a result-header payload to buf.
func AppendHeader(buf []byte, h Header) []byte {
	buf = binary.BigEndian.AppendUint64(buf, h.SnapVersion)
	buf = binary.BigEndian.AppendUint64(buf, h.SnapLen)
	buf = binary.BigEndian.AppendUint32(buf, h.NRows)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.Cols)))
	for _, c := range h.Cols {
		buf = AppendString(buf, c.Name)
		buf = append(buf, byte(c.Type))
	}
	return buf
}

// DecodeHeader decodes a result-header payload.
func DecodeHeader(payload []byte) (Header, error) {
	var h Header
	if len(payload) < 22 {
		return h, fmt.Errorf("wire: truncated header frame")
	}
	h.SnapVersion = binary.BigEndian.Uint64(payload[:8])
	h.SnapLen = binary.BigEndian.Uint64(payload[8:16])
	h.NRows = binary.BigEndian.Uint32(payload[16:20])
	ncols := int(binary.BigEndian.Uint16(payload[20:22]))
	payload = payload[22:]
	// Every column is at least a name length and a type byte; reject a
	// count the bytes cannot hold before allocating.
	if 2*ncols > len(payload) {
		return h, fmt.Errorf("wire: header of %d columns exceeds its %d-byte payload", ncols, len(payload))
	}
	h.Cols = make([]Col, ncols)
	for i := range h.Cols {
		name, rest, err := ReadString(payload)
		if err != nil {
			return h, err
		}
		if len(rest) < 1 {
			return h, fmt.Errorf("wire: truncated header column %d", i)
		}
		h.Cols[i] = Col{Name: name, Type: relation.Type(rest[0])}
		payload = rest[1:]
	}
	return h, nil
}

// EncodeColumn encodes one result column (its index plus nrows values).
func EncodeColumn(col int, vals []pref.Value) ([]byte, error) {
	buf := make([]byte, 0, 16+9*len(vals))
	return store.AppendRow(binary.BigEndian.AppendUint16(buf, uint16(col)), vals)
}

// DecodeColumn decodes a column frame into its index and nrows values.
func DecodeColumn(payload []byte, nrows int) (int, []pref.Value, error) {
	if len(payload) < 2 {
		return 0, nil, fmt.Errorf("wire: truncated column frame")
	}
	col := int(binary.BigEndian.Uint16(payload[:2]))
	payload = payload[2:]
	// Every value is at least its tag byte: a row count the bytes cannot
	// hold is rejected before allocating.
	if nrows < 0 || nrows > len(payload) {
		return 0, nil, fmt.Errorf("wire: column of %d rows exceeds its %d-byte payload", nrows, len(payload))
	}
	vals, payload, err := store.ReadRow(payload, nrows)
	if err != nil {
		return 0, nil, err
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("wire: %d trailing bytes in column frame", len(payload))
	}
	return col, vals, nil
}

// RowBatch accumulates streamed rows into one row-batch frame payload.
// Rows are encoded as they arrive (nothing borrowed from the producer
// outlives the Append call), so a yield callback can hand over rows it
// intends to reuse. The zero value is an empty batch; Reset recycles
// the buffer across frames.
type RowBatch struct {
	buf []byte
	n   int
}

// Append encodes one row into the batch.
func (b *RowBatch) Append(row relation.Row) error {
	buf, err := store.AppendRow(b.buf, row)
	if err != nil {
		return err
	}
	b.buf = buf
	b.n++
	return nil
}

// Len returns the number of rows accumulated.
func (b *RowBatch) Len() int { return b.n }

// Payload renders the batch as a row-batch frame payload.
func (b *RowBatch) Payload() []byte {
	out := make([]byte, 0, binary.MaxVarintLen64+len(b.buf))
	out = binary.AppendUvarint(out, uint64(b.n))
	return append(out, b.buf...)
}

// Reset empties the batch, keeping the buffer for reuse.
func (b *RowBatch) Reset() {
	b.buf = b.buf[:0]
	b.n = 0
}

// EncodeRowBatch encodes a row-batch frame payload in one call.
func EncodeRowBatch(rows []relation.Row) ([]byte, error) {
	var b RowBatch
	for _, row := range rows {
		if err := b.Append(row); err != nil {
			return nil, err
		}
	}
	return b.Payload(), nil
}

// DecodeRowBatch decodes a row-batch frame into its rows of ncols
// values each.
func DecodeRowBatch(payload []byte, ncols int) ([]relation.Row, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("wire: truncated row-batch frame")
	}
	payload = payload[k:]
	// Every encoded value is at least one tag byte, so a well-formed
	// batch never holds more values than the remaining bytes; reject
	// before allocating.
	if ncols <= 0 && n > 0 {
		return nil, fmt.Errorf("wire: row-batch of %d zero-column rows", n)
	}
	if n > 0 && n > uint64(len(payload)/ncols) {
		return nil, fmt.Errorf("wire: row-batch count %d exceeds payload", n)
	}
	rows := make([]relation.Row, n)
	var err error
	for i := range rows {
		if rows[i], payload, err = store.ReadRow(payload, ncols); err != nil {
			return nil, err
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in row-batch frame", len(payload))
	}
	return rows, nil
}

// EncodeError encodes an error frame payload.
func EncodeError(code, msg string) []byte {
	buf := AppendString(nil, code)
	return AppendString(buf, msg)
}

// DecodeError decodes an error frame payload.
func DecodeError(payload []byte) (*ServerError, error) {
	code, rest, err := ReadString(payload)
	if err != nil {
		return nil, err
	}
	msg, _, err := ReadString(rest)
	if err != nil {
		return nil, err
	}
	return &ServerError{Code: code, Msg: msg}, nil
}

// Ready is a decoded turn-closing frame.
type Ready struct {
	// Partial is the degraded-result report under PolicyPartial ("" for a
	// complete result): a rendering of the missing shards and causes.
	Partial string
}

// EncodeReady encodes a ready frame payload.
func EncodeReady(r Ready) []byte { return AppendReady(nil, r) }

// AppendReady appends a ready frame payload to buf.
func AppendReady(buf []byte, r Ready) []byte {
	if r.Partial == "" {
		return append(buf, 0)
	}
	return AppendString(append(buf, 1), r.Partial)
}

// DecodeReady decodes a ready frame payload.
func DecodeReady(payload []byte) (Ready, error) {
	if len(payload) < 1 {
		return Ready{}, fmt.Errorf("wire: truncated ready frame")
	}
	if payload[0] == 0 {
		return Ready{}, nil
	}
	partial, _, err := ReadString(payload[1:])
	return Ready{Partial: partial}, err
}

// Stat is one status-report entry. Keys are dotted paths (e.g.
// "pool.hits", "shard.car/0.segment_bytes"); values stay strings so the
// report can mix counters, ratios and human-readable sizes without a
// schema change per metric.
type Stat struct {
	// Key names the metric.
	Key string
	// Val is its rendered value.
	Val string
}

// EncodeStatus encodes a status frame payload: count, then each entry's
// key and value as length-prefixed strings, order preserved.
func EncodeStatus(stats []Stat) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(stats)))
	for _, st := range stats {
		buf = AppendString(buf, st.Key)
		buf = AppendString(buf, st.Val)
	}
	return buf
}

// DecodeStatus decodes a status frame payload.
func DecodeStatus(payload []byte) ([]Stat, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("wire: truncated status frame")
	}
	payload = payload[k:]
	// Each entry costs at least two length bytes; reject absurd counts
	// before allocating.
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("wire: status count %d exceeds payload", n)
	}
	stats := make([]Stat, n)
	var err error
	for i := range stats {
		if stats[i].Key, payload, err = ReadString(payload); err != nil {
			return nil, err
		}
		if stats[i].Val, payload, err = ReadString(payload); err != nil {
			return nil, err
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in status frame", len(payload))
	}
	return stats, nil
}

// EncodeInsert encodes an insert frame payload: table name plus row.
func EncodeInsert(table string, row relation.Row) ([]byte, error) {
	buf := AppendString(nil, table)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(row)))
	return store.AppendRow(buf, row)
}

// DecodeInsert decodes an insert frame payload.
func DecodeInsert(payload []byte) (string, relation.Row, error) {
	table, rest, err := ReadString(payload)
	if err != nil {
		return "", nil, err
	}
	if len(rest) < 2 {
		return "", nil, fmt.Errorf("wire: truncated insert frame")
	}
	ncols := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	// Every value is at least its tag byte; reject before allocating.
	if ncols > len(rest) {
		return "", nil, fmt.Errorf("wire: insert of %d values exceeds its %d-byte payload", ncols, len(rest))
	}
	row, rest, err := store.ReadRow(rest, ncols)
	if err != nil {
		return "", nil, err
	}
	if len(rest) != 0 {
		return "", nil, fmt.Errorf("wire: %d trailing bytes in insert frame", len(rest))
	}
	return table, row, nil
}
