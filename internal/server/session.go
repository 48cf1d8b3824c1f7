package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/wire"
)

// A session is one client connection: a reader pump goroutine feeding a
// statement loop. The pump owns the connection's read side; it routes
// cancel frames straight to the in-flight query's context (they must
// act while the statement loop is busy evaluating) and everything else
// into the frame channel. A read error — the client vanished — cancels
// the in-flight query too, so a mid-query disconnect reclaims the
// admission slot promptly instead of evaluating for nobody.
type session struct {
	srv *Server
	nc  net.Conn
	wc  *wire.Conn

	frames chan frame

	mu       sync.Mutex
	inflight context.CancelFunc

	// Session state: execution defaults (SET), prepared statements
	// (PREPARE/EXECUTE, at most parseCacheCap names), and the bounded
	// statement-text parse cache for repeated Q/T frames.
	opts     psql.Options
	prepared map[string]*psql.Query
	parsed   map[string]*statement

	// buf is the encode buffer of batch answers, reused across turns
	// while it stays within answerBytesMax.
	buf []byte
}

// parseCacheCap bounds the per-session statement parse cache. A hot set
// of repeated statements (dashboards, load generators) stays parsed;
// past the cap the cache resets wholesale — re-parsing a statement once
// per cap-miss epoch is cheaper than tracking recency. It also bounds the
// names a session may hold PREPAREd: past it a PREPARE of a new name
// fails until a DEALLOCATE frees one.
const parseCacheCap = 128

// Retained answers. Under BMO semantics a statement's answer is a
// function of its text and the table generation it reads, so a session
// keeps the encoded frames of a repeated statement's last answer and
// serves the next repeat at the same generation by writing them. Only
// what the workload reuses is kept: an answer is retained the second
// time a text arrives (a parse-cache hit), when it is complete and at
// most answerBytesMax bytes, and while the server's retained total stays
// within answerBytesBudget — past it, statements simply execute.
const (
	answerBytesMax    = 64 << 10
	answerBytesBudget = 32 << 20
)

// statement is one parse-cache entry: the parsed text and, once the text
// has been seen twice, the frames of its last complete batch answer
// (header, columns, ready) with the live table and generation they were
// computed at.
type statement struct {
	q      *psql.Query
	answer []byte
	table  relation.Table
	gen    uint64
}

// frame is one pumped client frame.
type frame struct {
	typ     byte
	payload []byte
}

func newSession(s *Server, nc net.Conn) *session {
	return &session{
		srv:      s,
		nc:       nc,
		wc:       wire.NewConn(nc),
		frames:   make(chan frame),
		opts:     psql.Options{Timeout: s.cfg.DefaultTimeout},
		prepared: make(map[string]*psql.Query),
		parsed:   make(map[string]*statement),
	}
}

// forget releases an entry's retained answer.
func (ss *session) forget(e *statement) {
	if e.answer != nil {
		ss.srv.answerBytes.Add(-int64(len(e.answer)))
		e.answer, e.table = nil, nil
	}
}

// clearParsed empties the parse cache, releasing every retained answer.
func (ss *session) clearParsed() {
	for _, e := range ss.parsed {
		ss.forget(e)
	}
	clear(ss.parsed)
}

// sever force-closes the connection (Shutdown past its deadline).
func (ss *session) sever() { ss.nc.Close() }

// notifyDrain tells the client the server is draining. Wire writes are
// internally serialized, so the notice may interleave with a result at
// frame granularity only.
func (ss *session) notifyDrain() {
	ss.wc.WriteFrame(wire.FrameNotice, []byte("server draining: no new statements accepted"))
	ss.wc.Flush()
}

// cancelInflight cancels the running statement's context, if any.
func (ss *session) cancelInflight() {
	ss.mu.Lock()
	cancel := ss.inflight
	ss.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// pump reads frames until the connection dies, routing cancels around
// the statement loop. It closes the frame channel on exit.
func (ss *session) pump() {
	defer close(ss.frames)
	for {
		typ, payload, err := ss.wc.ReadFrame()
		if err != nil {
			ss.cancelInflight()
			return
		}
		if typ == wire.FrameCancel {
			ss.cancelInflight()
			continue
		}
		ss.frames <- frame{typ, payload}
		if typ == wire.FrameQuit {
			return
		}
	}
}

// run is the statement loop; it returns when the client quits,
// disconnects, or sends a malformed frame.
func (ss *session) run() {
	defer ss.nc.Close()
	go ss.pump()
	// Drain the pump on exit so it never blocks forever on a send to a
	// loop that already returned (closing the conn unblocks its read).
	defer func() {
		ss.nc.Close()
		for range ss.frames { //nolint:revive // draining
		}
		ss.clearParsed()
	}()
	for f := range ss.frames {
		switch f.typ {
		case wire.FrameQuit:
			return
		case wire.FrameQuery:
			ss.serveStatement(f.payload, false)
		case wire.FrameStream:
			ss.serveStatement(f.payload, true)
		case wire.FrameInsert:
			ss.serveInsert(f.payload)
		case wire.FrameSet:
			ss.serveSet(string(f.payload))
		case wire.FrameStats:
			ss.serveStats()
		default:
			// Protocol violation: answer typed and hang up.
			ss.sendError(wire.CodeProtocol, fmt.Sprintf("unexpected frame type %q", f.typ))
			return
		}
	}
}

// sendError writes an error frame (counting it) and flushes.
func (ss *session) sendError(code, msg string) {
	ss.srv.nErrors.Add(1)
	if code == wire.CodeOverload {
		ss.srv.nOverloads.Add(1)
	}
	ss.wc.WriteFrame(wire.FrameError, wire.EncodeError(code, msg))
	ss.wc.Flush()
}

// sendReady writes a ready frame and flushes the turn.
func (ss *session) sendReady(r wire.Ready) {
	ss.wc.WriteFrame(wire.FrameReady, wire.EncodeReady(r))
	ss.wc.Flush()
}

// errorCode classifies an execution error into a wire code.
func errorCode(err error) string {
	var over *engine.OverloadError
	switch {
	case errors.As(err, &over):
		return wire.CodeOverload
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeTimeout
	case errors.Is(err, context.Canceled):
		return wire.CodeCancelled
	}
	return wire.CodeExec
}

// beginQuery installs a cancellable context as the session's in-flight
// query; the returned finish clears it.
func (ss *session) beginQuery() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ss.mu.Lock()
	ss.inflight = cancel
	ss.mu.Unlock()
	return ctx, func() {
		ss.mu.Lock()
		ss.inflight = nil
		ss.mu.Unlock()
		cancel()
	}
}

// serveStatement executes one statement text (query or stream turn). A
// batch repeat whose retained answer is still current is answered with
// those bytes: no snapshot, no admission slot, no evaluation.
func (ss *session) serveStatement(text []byte, stream bool) {
	ss.srv.nQueries.Add(1)
	if ss.srv.Draining() {
		ss.sendError(wire.CodeShutdown, "server draining")
		return
	}
	if len(text) > ss.srv.cfg.MaxStatement {
		ss.sendError(wire.CodeTooLarge, fmt.Sprintf("statement is %d bytes, limit %d", len(text), ss.srv.cfg.MaxStatement))
		return
	}
	// Session commands never enter the parse cache, so a cached text is a
	// query.
	e, seen := ss.parsed[string(text)]
	switch {
	case seen && stream:
		ss.serveStream(e.q)
		return
	case seen:
		if e.answer != nil && ss.srv.current(e) {
			ss.srv.nAnswerHits.Add(1)
			ss.wc.Write(e.answer)
			ss.wc.Flush()
			return
		}
		ss.serveQuery(e.q, e)
		return
	}
	stmt := string(text)
	if done := ss.serveSessionCommand(stmt, stream); done {
		return
	}
	q, err := psql.Parse(stmt)
	if err != nil {
		ss.sendError(wire.CodeParse, err.Error())
		return
	}
	// Queries are read-only through execution (the EXECUTE path has
	// reused them across turns since it existed), so caching the parsed
	// form by exact statement text is safe.
	if len(ss.parsed) >= parseCacheCap {
		ss.clearParsed()
	}
	ss.parsed[stmt] = &statement{q: q}
	if stream {
		ss.serveStream(q)
		return
	}
	ss.serveQuery(q, nil)
}

// serveSessionCommand handles the statements the server resolves itself
// — PREPARE name AS <stmt>, EXECUTE name, DEALLOCATE name — reporting
// whether it consumed the turn.
func (ss *session) serveSessionCommand(stmt string, stream bool) bool {
	word := func(s string) (string, string) {
		s = strings.TrimSpace(s)
		i := strings.IndexAny(s, " \t\r\n")
		if i < 0 {
			return s, ""
		}
		return s[:i], strings.TrimSpace(s[i:])
	}
	head, rest := word(stmt)
	switch strings.ToUpper(head) {
	case "PREPARE":
		name, rest := word(rest)
		as, body := word(rest)
		if name == "" || !strings.EqualFold(as, "AS") || body == "" {
			ss.sendError(wire.CodeParse, "want PREPARE <name> AS <statement>")
			return true
		}
		if _, held := ss.prepared[name]; !held && len(ss.prepared) >= parseCacheCap {
			ss.sendError(wire.CodeExec, fmt.Sprintf("too many prepared statements (%d): DEALLOCATE one first", parseCacheCap))
			return true
		}
		q, err := psql.Parse(body)
		if err != nil {
			ss.sendError(wire.CodeParse, err.Error())
			return true
		}
		ss.prepared[name] = q
		ss.sendReady(wire.Ready{})
		return true
	case "EXECUTE":
		name, trailing := word(rest)
		if name == "" || trailing != "" {
			ss.sendError(wire.CodeParse, "want EXECUTE <name>")
			return true
		}
		q, ok := ss.prepared[name]
		if !ok {
			ss.sendError(wire.CodeExec, fmt.Sprintf("no prepared statement %q", name))
			return true
		}
		if stream {
			ss.serveStream(q)
			return true
		}
		ss.serveQuery(q, nil)
		return true
	case "DEALLOCATE":
		name, trailing := word(rest)
		if name == "" || trailing != "" {
			ss.sendError(wire.CodeParse, "want DEALLOCATE <name>")
			return true
		}
		delete(ss.prepared, name)
		ss.sendReady(wire.Ready{})
		return true
	}
	return false
}

// serveQuery runs one batch query turn: snapshot, execute, answer with
// header + column frames + ready. With e (a repeated statement text) the
// answer replaces e's retained one.
func (ss *session) serveQuery(q *psql.Query, e *statement) {
	if e != nil {
		ss.forget(e)
	}
	p, err := ss.srv.snapshotTable(q.From)
	if err != nil {
		ss.sendError(wire.CodeExec, err.Error())
		return
	}
	ctx, finish := ss.beginQuery()
	defer finish()
	opts := ss.opts
	opts.Admission = ss.srv.adm
	res, err := psql.ExecCtx(ctx, q, psql.Catalog{q.From: p.snap}, opts)
	if err != nil {
		ss.sendError(errorCode(err), err.Error())
		return
	}
	var partial string
	if res.Partial != nil {
		partial = res.Partial.Error()
	}
	buf, err := appendResult(ss.buf[:0], res.Rel, p.gen, p.len, partial)
	if err != nil {
		ss.sendError(wire.CodeExec, err.Error())
		return
	}
	if e != nil && partial == "" && !q.ExplainPlan {
		ss.retain(e, buf, p)
	}
	ss.wc.Write(buf)
	ss.wc.Flush()
	if cap(buf) <= answerBytesMax {
		ss.buf = buf
	}
}

// retain keeps a complete answer's frames on its statement entry, keyed
// by the table and generation it was computed at, within the per-entry
// and server-wide bounds.
func (ss *session) retain(e *statement, answer []byte, p pin) {
	n := int64(len(answer))
	if n > answerBytesMax {
		return
	}
	if ss.srv.answerBytes.Add(n) > answerBytesBudget {
		ss.srv.answerBytes.Add(-n)
		return
	}
	e.answer, e.table, e.gen = bytes.Clone(answer), p.live, p.gen
}

// appendResult appends a finished relation's answer to buf as frames:
// the header, one column frame per column — the column's values in the
// store's tagged encoding, copied as stored out of an answer picked from
// a paged table and encoded from boxed rows otherwise
// (relation.AppendColumn) — and the closing ready frame. Fresh and
// retained answers both come from here, so a retained answer is
// byte-identical to a fresh one.
func appendResult(buf []byte, rel *relation.Relation, gen, snapLen uint64, partial string) ([]byte, error) {
	schema := rel.Schema()
	cols := make([]wire.Col, schema.Len())
	for i, c := range schema.Columns() {
		cols[i] = wire.Col{Name: c.Name, Type: c.Type}
	}
	n := rel.Len()
	start := len(buf)
	buf = wire.BeginFrame(buf, wire.FrameHeader)
	buf = wire.AppendHeader(buf, wire.Header{SnapVersion: gen, SnapLen: snapLen, NRows: uint32(n), Cols: cols})
	if err := wire.EndFrame(buf, start); err != nil {
		return nil, err
	}
	var err error
	for c := range cols {
		start = len(buf)
		buf = binary.BigEndian.AppendUint16(wire.BeginFrame(buf, wire.FrameColumn), uint16(c))
		if buf, err = rel.AppendColumn(buf, c); err != nil {
			return nil, err
		}
		if err := wire.EndFrame(buf, start); err != nil {
			return nil, err
		}
	}
	start = len(buf)
	buf = wire.AppendReady(wire.BeginFrame(buf, wire.FrameReady), wire.Ready{Partial: partial})
	return buf, wire.EndFrame(buf, start)
}

// streamBatchRows is the row-batch chunk size for progressive results:
// the first confirmed row flushes alone (time-to-first-row is the mode's
// point), then rows chunk into row-batch frames so large results pay one
// frame header and one flush syscall per chunk instead of per row.
const streamBatchRows = 64

// serveStream runs one progressive query turn: header (row count
// unknown), the first confirmed row as a one-row batch frame, subsequent
// rows as row-batch frames of up to streamBatchRows, ready. The session
// holds its own admission slot for the duration. The evaluation runs under the turn's context — a client
// cancel frame, a disconnect or the timeout stops it mid-scan, before
// the first row included — and the yield's own check stops the write
// side between rows.
func (ss *session) serveStream(q *psql.Query) {
	p, err := ss.srv.snapshotTable(q.From)
	if err != nil {
		ss.sendError(wire.CodeExec, err.Error())
		return
	}
	ctx, finish := ss.beginQuery()
	defer finish()
	release, err := ss.srv.adm.Acquire(ctx)
	if err != nil {
		ss.sendError(errorCode(err), err.Error())
		return
	}
	defer release()
	if ss.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ss.opts.Timeout)
		defer cancel()
	}
	schema := p.snap.Schema()
	sel := q.Select
	if len(sel) == 0 {
		sel = schema.Names()
	}
	cols := make([]wire.Col, len(sel))
	for i, name := range sel {
		ci, ok := schema.Index(name)
		if !ok {
			ss.sendError(wire.CodeExec, fmt.Sprintf("no column %q in relation %q", name, q.From))
			return
		}
		cols[i] = wire.Col{Name: name, Type: schema.Col(ci).Type}
	}
	hdr := wire.Header{SnapVersion: p.gen, SnapLen: p.len, NRows: wire.StreamRows, Cols: cols}
	if err := ss.wc.WriteFrame(wire.FrameHeader, wire.EncodeHeader(hdr)); err != nil {
		return
	}
	opts := ss.opts
	opts.Timeout, opts.Admission = 0, nil // held by this turn already
	var encodeErr error
	var batch wire.RowBatch
	flushBatch := func() error {
		if batch.Len() == 0 {
			return nil
		}
		if err := ss.wc.WriteFrame(wire.FrameRowBatch, batch.Payload()); err != nil {
			return err
		}
		batch.Reset()
		return ss.wc.Flush()
	}
	first := true
	_, part, err := psql.ExecStreamCtx(ctx, q, psql.Catalog{q.From: p.snap}, opts, func(row relation.Row) bool {
		if ctx.Err() != nil {
			return false
		}
		if err := batch.Append(row); err != nil {
			encodeErr = err
			return false
		}
		// The first row flushes alone so the client sees the stream open
		// (and can stop it) before the first chunk fills.
		if first || batch.Len() >= streamBatchRows {
			first = false
			if err := flushBatch(); err != nil {
				encodeErr = err
				return false
			}
		}
		return true
	})
	switch {
	case err != nil:
		ss.sendError(errorCode(err), err.Error())
	case ctx.Err() != nil:
		ss.sendError(errorCode(ctx.Err()), ctx.Err().Error())
	case encodeErr != nil:
		ss.sendError(wire.CodeExec, encodeErr.Error())
	default:
		if err := flushBatch(); err != nil {
			return
		}
		var ready wire.Ready
		if part != nil {
			ready.Partial = part.Error()
		}
		ss.sendReady(ready)
	}
}

// serveInsert applies one wire insert to the live catalog table (never
// a snapshot: writes go to the head generation; concurrent readers keep
// their pins).
func (ss *session) serveInsert(payload []byte) {
	table, row, err := wire.DecodeInsert(payload)
	if err != nil {
		ss.sendError(wire.CodeProtocol, err.Error())
		return
	}
	tbl, ok := ss.srv.table(table)
	if !ok {
		ss.sendError(wire.CodeInsert, fmt.Sprintf("unknown relation %q", table))
		return
	}
	if err := tbl.Insert(row); err != nil {
		ss.sendError(wire.CodeInsert, err.Error())
		return
	}
	ss.srv.nInserts.Add(1)
	ss.wc.WriteFrame(wire.FrameInsertOK, binary.BigEndian.AppendUint64(nil, uint64(tbl.Len())))
	ss.wc.Flush()
}

// serveStats answers a stats frame: the server's cumulative counters
// first, then whatever the storage provider reports (buffer-pool hit
// rate, WAL bytes, per-shard segment sizes — see Server.SetStatus), one
// status frame plus the turn-closing ready.
func (ss *session) serveStats() {
	m := ss.srv.Metrics()
	stats := []wire.Stat{
		{Key: "server.sessions", Val: fmt.Sprintf("%d", m.Sessions)},
		{Key: "server.queries", Val: fmt.Sprintf("%d", m.Queries)},
		{Key: "server.errors", Val: fmt.Sprintf("%d", m.Errors)},
		{Key: "server.overloads", Val: fmt.Sprintf("%d", m.Overloads)},
		{Key: "server.inserts", Val: fmt.Sprintf("%d", m.Inserts)},
		{Key: "server.result_bytes_hits", Val: fmt.Sprintf("%d", m.ResultBytesHits)},
		{Key: "server.result_bytes_retained", Val: fmt.Sprintf("%d", m.ResultBytesRetained)},
	}
	stats = append(stats, ss.srv.statusExtra()...)
	if err := ss.wc.WriteFrame(wire.FrameStatus, wire.EncodeStatus(stats)); err != nil {
		return
	}
	ss.sendReady(wire.Ready{})
}

// serveSet applies one session option assignment.
func (ss *session) serveSet(assign string) {
	key, value, found := strings.Cut(assign, "=")
	if !found {
		ss.sendError(wire.CodeSet, "want key=value")
		return
	}
	key, value = strings.TrimSpace(key), strings.TrimSpace(value)
	switch strings.ToLower(key) {
	case "timeout":
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			ss.sendError(wire.CodeSet, fmt.Sprintf("bad timeout %q", value))
			return
		}
		ss.opts.Timeout = d
	case "shard_timeout":
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			ss.sendError(wire.CodeSet, fmt.Sprintf("bad shard_timeout %q", value))
			return
		}
		ss.opts.Robust.ShardTimeout = d
	case "policy":
		switch strings.ToLower(value) {
		case "strict":
			ss.opts.Robust.Policy = engine.PolicyStrict
		case "partial":
			ss.opts.Robust.Policy = engine.PolicyPartial
		default:
			ss.sendError(wire.CodeSet, fmt.Sprintf("bad policy %q (want strict or partial)", value))
			return
		}
	default:
		ss.sendError(wire.CodeSet, fmt.Sprintf("unknown option %q", key))
		return
	}
	ss.sendReady(wire.Ready{})
}
