package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/psql"
	"repro/internal/rank"
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
	// (PREPARE/EXECUTE) and their registered ranked-query handles, and
	// the bounded statement-text parse cache for repeated Q/T frames.
	opts     psql.Options
	prepared map[string]*prepared
	parsed   map[string]*psql.Query
}

// parseCacheCap bounds the per-session statement parse cache. A hot set
// of repeated statements (dashboards, load generators) stays parsed;
// past the cap the cache resets wholesale — re-parsing a statement once
// per cap-miss epoch is cheaper than tracking recency.
const parseCacheCap = 128

// frame is one pumped client frame.
type frame struct {
	typ     byte
	payload []byte
}

// prepared is one session-cached statement. Ranked queries of the
// minimal shape additionally carry a rank.Register handle: the handle's
// session token gives the opaque weighted-sum term a cache identity, so
// repeated EXECUTEs over an unchanged table reuse the materialized
// score vector (see internal/rank).
type prepared struct {
	q      *psql.Query
	handle *rank.Handle
}

func newSession(s *Server, nc net.Conn) *session {
	return &session{
		srv:      s,
		nc:       nc,
		wc:       wire.NewConn(nc),
		frames:   make(chan frame),
		opts:     psql.Options{Timeout: s.cfg.DefaultTimeout},
		prepared: make(map[string]*prepared),
		parsed:   make(map[string]*psql.Query),
	}
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
	}()
	for f := range ss.frames {
		switch f.typ {
		case wire.FrameQuit:
			return
		case wire.FrameQuery:
			ss.serveStatement(string(f.payload), false)
		case wire.FrameStream:
			ss.serveStatement(string(f.payload), true)
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

// serveStatement executes one statement text (query or stream turn).
func (ss *session) serveStatement(stmt string, stream bool) {
	ss.srv.nQueries.Add(1)
	if ss.srv.Draining() {
		ss.sendError(wire.CodeShutdown, "server draining")
		return
	}
	if len(stmt) > ss.srv.cfg.MaxStatement {
		ss.sendError(wire.CodeTooLarge, fmt.Sprintf("statement is %d bytes, limit %d", len(stmt), ss.srv.cfg.MaxStatement))
		return
	}
	if done := ss.serveSessionCommand(stmt, stream); done {
		return
	}
	q, ok := ss.parsed[stmt]
	if !ok {
		var err error
		q, err = psql.Parse(stmt)
		if err != nil {
			ss.sendError(wire.CodeParse, err.Error())
			return
		}
		// Queries are read-only through execution (the EXECUTE path has
		// reused them across turns since it existed), so caching the
		// parsed form by exact statement text is safe.
		if len(ss.parsed) >= parseCacheCap {
			clear(ss.parsed)
		}
		ss.parsed[stmt] = q
	}
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
		q, err := psql.Parse(body)
		if err != nil {
			ss.sendError(wire.CodeParse, err.Error())
			return true
		}
		ss.prepared[name] = &prepared{q: q, handle: registerRanked(q)}
		ss.sendReady(wire.Ready{})
		return true
	case "EXECUTE":
		name, trailing := word(rest)
		if name == "" || trailing != "" {
			ss.sendError(wire.CodeParse, "want EXECUTE <name>")
			return true
		}
		p, ok := ss.prepared[name]
		if !ok {
			ss.sendError(wire.CodeExec, fmt.Sprintf("no prepared statement %q", name))
			return true
		}
		if stream {
			ss.serveStream(p.q)
			return true
		}
		ss.serveQuery(p.q, p.handle)
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

// registerRanked gives a prepared ranked query of the minimal shape —
// TOP-k over a bare RANK preference, nothing else — a session-scoped
// rank handle; nil for every other shape (they execute through the
// ordinary pipeline, whose bound-form caches key on the term text).
func registerRanked(q *psql.Query) *rank.Handle {
	if q.Top <= 0 || q.Preferring == nil || q.ExplainPlan ||
		q.Where != nil || len(q.Cascades) > 0 || len(q.GroupingBy) > 0 ||
		q.ButOnly != nil || q.Skyline != nil || len(q.OrderBy) > 0 ||
		len(q.Select) > 0 || q.Distinct {
		return nil
	}
	built, err := q.Preferring.Build()
	if err != nil {
		return nil
	}
	s, ok := built.(pref.Scorer)
	if !ok {
		return nil
	}
	return rank.Register(s)
}

// serveQuery runs one batch query turn: snapshot, execute, answer with
// header + column frames + ready.
func (ss *session) serveQuery(q *psql.Query, handle *rank.Handle) {
	snap, version, snapLen, err := ss.srv.snapshotTable(q.From)
	if err != nil {
		ss.sendError(wire.CodeExec, err.Error())
		return
	}
	ctx, finish := ss.beginQuery()
	defer finish()
	var rel *relation.Relation
	var partial string
	if flat, ok := snap.(*relation.Relation); ok && handle != nil {
		rel, err = ss.execRanked(ctx, flat, handle, q.Top)
	} else {
		opts := ss.opts
		opts.Admission = ss.srv.adm
		var res *psql.Result
		res, err = psql.ExecCtx(ctx, q, psql.Catalog{q.From: snap}, opts)
		if err == nil {
			rel = res.Rel
			if res.Partial != nil {
				partial = res.Partial.Error()
			}
		}
	}
	if err != nil {
		ss.sendError(errorCode(err), err.Error())
		return
	}
	if err := ss.writeResult(rel, version, snapLen, partial); err != nil {
		return
	}
	ss.sendReady(wire.Ready{Partial: partial})
}

// execRanked is the prepared ranked fast path: k best rows off the
// pinned snapshot through the session's registered handle, whose score
// vector caches under (snapshot, version, handle token) — repeated
// EXECUTEs over an unchanged table are bind-free even though the
// weighted-sum term itself is keyless. Identical output to the pipeline
// path (rank.TopKOn scores and tie-breaks exactly like the engine's
// ranked model).
func (ss *session) execRanked(ctx context.Context, snap *relation.Relation, h *rank.Handle, k int) (_ *relation.Relation, err error) {
	defer relation.RecoverPageError(&err)
	release, err := ss.srv.adm.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if ss.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ss.opts.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := h.TopKOn(snap, k, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ridx := make([]int, len(results))
	for i, r := range results {
		ridx[i] = r.Row
	}
	return snap.Pick(ridx), nil
}

// writeResult encodes a finished relation as header + per-column frames.
func (ss *session) writeResult(rel *relation.Relation, version, snapLen uint64, partial string) error {
	schema := rel.Schema()
	cols := make([]wire.Col, schema.Len())
	for i, c := range schema.Columns() {
		cols[i] = wire.Col{Name: c.Name, Type: c.Type}
	}
	hdr := wire.Header{SnapVersion: version, SnapLen: snapLen, NRows: uint32(rel.Len()), Cols: cols}
	if err := ss.wc.WriteFrame(wire.FrameHeader, wire.EncodeHeader(hdr)); err != nil {
		return err
	}
	vals := make([]pref.Value, rel.Len())
	for c := range cols {
		for i := range vals {
			vals[i] = rel.Row(i)[c]
		}
		payload, err := wire.EncodeColumn(c, vals)
		if err != nil {
			ss.sendError(wire.CodeExec, err.Error())
			return err
		}
		if err := ss.wc.WriteFrame(wire.FrameColumn, payload); err != nil {
			return err
		}
	}
	return nil
}

// streamBatchRows is the row-batch chunk size for progressive results:
// the first confirmed row flushes alone (time-to-first-row is the mode's
// point), then rows chunk into row-batch frames so large results pay one
// frame header and one flush syscall per chunk instead of per row.
const streamBatchRows = 64

// serveStream runs one progressive query turn: header (row count
// unknown), the first confirmed row as a row frame, subsequent rows as
// row-batch frames, ready. The session holds its own admission slot for
// the duration. The evaluation runs under the turn's context — a client
// cancel frame, a disconnect or the timeout stops it mid-scan, before
// the first row included — and the yield's own check stops the write
// side between rows.
func (ss *session) serveStream(q *psql.Query) {
	snap, version, snapLen, err := ss.srv.snapshotTable(q.From)
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
	schema := snap.Schema()
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
	hdr := wire.Header{SnapVersion: version, SnapLen: snapLen, NRows: wire.StreamRows, Cols: cols}
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
	_, part, err := psql.ExecStreamCtx(ctx, q, psql.Catalog{q.From: snap}, opts, func(row relation.Row) bool {
		if ctx.Err() != nil {
			return false
		}
		if first {
			// The first row flushes alone so the client sees the stream
			// open (and can stop it) before the first chunk fills.
			first = false
			payload, err := wire.EncodeRow(row)
			if err != nil {
				encodeErr = err
				return false
			}
			if err := ss.wc.WriteFrame(wire.FrameRow, payload); err != nil {
				encodeErr = err
				return false
			}
			if err := ss.wc.Flush(); err != nil {
				encodeErr = err
				return false
			}
			return true
		}
		if err := batch.Append(row); err != nil {
			encodeErr = err
			return false
		}
		if batch.Len() >= streamBatchRows {
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
	var ack [8]byte
	putUint64(ack[:], uint64(tbl.Len()))
	ss.wc.WriteFrame(wire.FrameInsertOK, ack[:])
	ss.wc.Flush()
}

// putUint64 is binary.BigEndian.PutUint64 without the import noise.
func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
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
