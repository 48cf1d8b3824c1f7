package server

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// shardedCar builds a sharded car table and returns it with the
// snapshot the server will pin — snapshots are memoized per cut, so a
// fault installed on the test's snapshot fires inside the server's
// ctx-aware shard workers.
func shardedCar(t *testing.T, rows int) (*relation.Sharded, *relation.Sharded) {
	t.Helper()
	sh, err := relation.ShardRelation(workload.Cars(rows, 3), 3, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	return sh, sh.Snapshot()
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const slowQuery = "SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)"

// TestOverloadSheddingOnWire: with one admission slot and no queue, a
// second concurrent query answers a typed OVERLOAD error while the
// first is still evaluating; cancelling the first frees the slot.
func TestOverloadSheddingOnWire(t *testing.T) {
	sh, snap := shardedCar(t, 200)
	faultinject.Install(snap, 0, faultinject.Fault{Mode: faultinject.Hang})
	defer faultinject.RemoveAll(snap)
	srv, addr := startServer(t, psql.Catalog{"car": relation.Table(sh)}, Config{MaxInFlight: 1})

	a, b := dialT(t, addr), dialT(t, addr)
	aDone := make(chan error, 1)
	go func() {
		_, err := a.Query(slowQuery)
		aDone <- err
	}()
	waitFor(t, "query A to hold the slot", func() bool { return srv.Admission().InFlight() == 1 })

	_, err := b.Query(slowQuery)
	if se := wireErrOf(t, err); se.Code != wire.CodeOverload {
		t.Fatalf("second query: %v, want OVERLOAD", err)
	}
	if srv.Metrics().Overloads == 0 {
		t.Fatal("overload not counted")
	}

	if err := a.Cancel(); err != nil {
		t.Fatal(err)
	}
	if se := wireErrOf(t, <-aDone); se.Code != wire.CodeCancelled {
		t.Fatalf("cancelled query A: want CANCELLED")
	}
	waitFor(t, "slot release", func() bool { return srv.Admission().InFlight() == 0 })

	faultinject.RemoveAll(snap)
	if _, err := b.Query(slowQuery); err != nil {
		t.Fatalf("after shed + cancel, the server must serve again: %v", err)
	}
}

// TestQueuedThenServed: with a queue timeout, a query arriving while
// the slot is busy waits its turn and completes normally — shedding is
// a last resort, not the first response.
func TestQueuedThenServed(t *testing.T) {
	sh, snap := shardedCar(t, 200)
	faultinject.Install(snap, 0, faultinject.Fault{Mode: faultinject.Delay, Latency: 150 * time.Millisecond})
	defer faultinject.RemoveAll(snap)
	cat := psql.Catalog{"car": relation.Table(sh)}
	srv, addr := startServer(t, cat, Config{MaxInFlight: 1, QueueTimeout: 5 * time.Second})

	a, b := dialT(t, addr), dialT(t, addr)
	aDone := make(chan error, 1)
	go func() {
		_, err := a.Query(slowQuery)
		aDone <- err
	}()
	waitFor(t, "query A to hold the slot", func() bool { return srv.Admission().InFlight() == 1 })

	// B queues behind A's delayed query, then serves with the correct
	// result — same rows as a direct execution.
	rs, err := b.Query(slowQuery)
	if err != nil {
		t.Fatalf("queued query: %v", err)
	}
	direct, err := psql.Run(slowQuery, cat, psql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRows(rs.Rows()), renderRel(direct); got != want {
		t.Errorf("queued-then-served result diverged:\nwire:   %sdirect: %s", got, want)
	}
	if err := <-aDone; err != nil {
		t.Fatalf("delayed query A: %v", err)
	}
	if srv.Metrics().Overloads != 0 {
		t.Fatal("queued query was counted as shed")
	}
}

// TestSessionTimeoutOnWire: a SET timeout turns a hung shard into a
// typed TIMEOUT error, and the session keeps serving afterwards.
func TestSessionTimeoutOnWire(t *testing.T) {
	sh, snap := shardedCar(t, 200)
	faultinject.Install(snap, 1, faultinject.Fault{Mode: faultinject.Hang})
	defer faultinject.RemoveAll(snap)
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(sh)}, Config{})
	c := dialT(t, addr)
	if err := c.Set("timeout", "100ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.Query(slowQuery)
	if se := wireErrOf(t, err); se.Code != wire.CodeTimeout {
		t.Fatalf("hung query: %v, want TIMEOUT", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("timeout took %v", took)
	}
	faultinject.RemoveAll(snap)
	if _, err := c.Query(slowQuery); err != nil {
		t.Fatalf("session unusable after timeout: %v", err)
	}
}

// Statements whose sharded STREAM turn has no progressive route: the
// keyed (non-chain) term evaluates as one batch sharded pass replayed
// through the stream, the grouped one falls back to the batch pipeline.
const (
	nonChainQuery = "SELECT oid FROM car PREFERRING color IN ('red') PRIOR TO LOWEST(price)"
	groupedQuery  = "SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY color"
)

// TestStreamTimeoutOnWire: a STREAM turn evaluates under the session's
// deadline before its first row too — a hung shard answers a typed
// TIMEOUT, whichever batch route the stream took, and the connection
// serves the next statement.
func TestStreamTimeoutOnWire(t *testing.T) {
	sh, snap := shardedCar(t, 200)
	faultinject.Install(snap, 1, faultinject.Fault{Mode: faultinject.Hang})
	defer faultinject.RemoveAll(snap)
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(sh)}, Config{})
	c := dialT(t, addr)
	if err := c.Set("timeout", "100ms"); err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{nonChainQuery, groupedQuery} {
		start := time.Now()
		_, n, err := c.Stream(query, func(relation.Row) bool { return true })
		if se := wireErrOf(t, err); se.Code != wire.CodeTimeout {
			t.Fatalf("%s: hung stream: %v, want TIMEOUT", query, err)
		}
		if n != 0 {
			t.Fatalf("%s: timed-out stream yielded %d rows", query, n)
		}
		if took := time.Since(start); took > 3*time.Second {
			t.Fatalf("%s: timeout took %v", query, took)
		}
	}
	faultinject.RemoveAll(snap)
	if _, _, err := c.Stream(nonChainQuery, func(relation.Row) bool { return true }); err != nil {
		t.Fatalf("session unusable after stream timeout: %v", err)
	}
}

// TestShardPanicContainedOnWire: a panicking shard worker — in the
// grouped step of a batch turn, in a stream's batch pass — answers a
// typed error frame naming the shard; the process and the session keep
// serving.
func TestShardPanicContainedOnWire(t *testing.T) {
	sh, snap := shardedCar(t, 200)
	faultinject.Install(snap, 2, faultinject.Fault{Mode: faultinject.Panic})
	defer faultinject.RemoveAll(snap)
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(sh)}, Config{})
	c := dialT(t, addr)

	_, err := c.Query(groupedQuery)
	if se := wireErrOf(t, err); se.Code != wire.CodeExec || !strings.Contains(se.Msg, "shard 2") {
		t.Fatalf("grouped query over a panicking shard: %v, want EXEC error naming shard 2", err)
	}
	for _, query := range []string{nonChainQuery, groupedQuery} {
		_, _, err := c.Stream(query, func(relation.Row) bool { return true })
		if se := wireErrOf(t, err); se.Code != wire.CodeExec || !strings.Contains(se.Msg, "shard 2") {
			t.Fatalf("%s: stream over a panicking shard: %v, want EXEC error naming shard 2", query, err)
		}
	}
	faultinject.RemoveAll(snap)
	if _, err := c.Query(groupedQuery); err != nil {
		t.Fatalf("server must keep serving after a contained panic: %v", err)
	}
}

// TestPageFaultContainedOnWire: a persisted row page that fails its
// checksum — read while the result rows materialize, outside any shard
// worker — answers an EXEC error naming the epoch and the page, in a
// batch turn and in a stream; the process and the session keep serving.
func TestPageFaultContainedOnWire(t *testing.T) {
	dir := t.TempDir()
	st, err := relation.OpenStore(dir, relation.StoreOptions{PageBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := relation.ShardRelation(workload.Cars(600, 3), 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportTable(sh); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip every byte of the row pages. The column segments still answer
	// WHERE and PREFERRING; no row can be read.
	pages, err := filepath.Glob(filepath.Join(dir, "car", "s*", "ep*", "rows.pag"))
	if err != nil || len(pages) != 2 {
		t.Fatalf("row files %v (%v), want one per shard", pages, err)
	}
	for _, path := range pages {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] ^= 0xff
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := relation.OpenStore(dir, relation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() }) // after the server's shutdown
	tbl, _ := st2.Table("car")
	_, addr := startServer(t, psql.Catalog{"car": tbl}, Config{})
	c := dialT(t, addr)

	wantPageFault := func(what string, err error) {
		t.Helper()
		se := wireErrOf(t, err)
		if se.Code != wire.CodeExec || !strings.Contains(se.Msg, "epoch") || !strings.Contains(se.Msg, " page ") || !strings.Contains(se.Msg, "checksum mismatch") {
			t.Fatalf("%s over corrupt row pages: %v, want an EXEC error naming the epoch and page", what, err)
		}
	}
	for _, query := range []string{"SELECT oid FROM car WHERE price <= 9000", slowQuery} {
		_, err := c.Query(query)
		wantPageFault(query, err)
	}
	_, _, err = c.Stream(slowQuery, func(relation.Row) bool { return true })
	wantPageFault("stream", err)

	for _, cl := range []*Client{c, dialT(t, addr)} {
		rs, err := cl.Query("SELECT oid FROM car WHERE price < 0")
		if err != nil || rs.Header.NRows != 0 {
			t.Fatalf("server must keep serving after a page fault: %v", err)
		}
	}
}

// TestStreamPartialOnWire: under SET policy partial a sharded stream's
// batch pass degrades like the batch turn — rows of the responsive
// shards, the missing shard reported in the ready frame.
func TestStreamPartialOnWire(t *testing.T) {
	sh, snap := shardedCar(t, 200)
	faultinject.Install(snap, 0, faultinject.Fault{Mode: faultinject.Panic})
	defer faultinject.RemoveAll(snap)
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(sh)}, Config{})
	c := dialT(t, addr)
	if err := c.Set("policy", "partial"); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query(nonChainQuery)
	if err != nil {
		t.Fatalf("partial batch turn: %v", err)
	}
	// Client.Stream drops the ready payload, so drive the turn raw.
	if err := c.RawFrame(wire.FrameStream, []byte(nonChainQuery)); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		typ, payload, err := c.ReadRaw()
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.FrameHeader:
		case wire.FrameRow:
			rows++
		case wire.FrameRowBatch:
			batch, err := wire.DecodeRowBatch(payload, 1)
			if err != nil {
				t.Fatal(err)
			}
			rows += len(batch)
		case wire.FrameReady:
			ready, err := wire.DecodeReady(payload)
			if err != nil {
				t.Fatal(err)
			}
			if ready.Partial == "" || ready.Partial != rs.Partial {
				t.Fatalf("stream ready frame partial = %q, want the batch turn's %q", ready.Partial, rs.Partial)
			}
			if !strings.Contains(ready.Partial, "[0]") {
				t.Fatalf("partial report %q does not name shard 0", ready.Partial)
			}
			if rows == 0 || rows != int(rs.Header.NRows) {
				t.Fatalf("partial stream yielded %d rows, batch turn %d", rows, rs.Header.NRows)
			}
			return
		default:
			t.Fatalf("unexpected frame %q (%s) in partial stream", typ, payload)
		}
	}
}

// TestDisconnectCancelsInflight: a client that vanishes mid-query must
// not strand the admission slot — the reader pump's death cancels the
// in-flight context.
func TestDisconnectCancelsInflight(t *testing.T) {
	sh, snap := shardedCar(t, 200)
	faultinject.Install(snap, 0, faultinject.Fault{Mode: faultinject.Hang})
	defer faultinject.RemoveAll(snap)
	srv, addr := startServer(t, psql.Catalog{"car": relation.Table(sh)}, Config{MaxInFlight: 2})

	c := dialT(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(slowQuery)
		done <- err
	}()
	waitFor(t, "query to hold a slot", func() bool { return srv.Admission().InFlight() == 1 })
	if err := c.Abandon(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("query on a severed connection returned a result")
	}
	waitFor(t, "slot release after disconnect", func() bool { return srv.Admission().InFlight() == 0 })
}

// TestMalformedFrame: an unknown frame type answers a typed PROTOCOL
// error and the server hangs up.
func TestMalformedFrame(t *testing.T) {
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(workload.Cars(10, 1))}, Config{})
	c := dialT(t, addr)
	if err := c.RawFrame('y', []byte("junk")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadRaw()
	if err != nil {
		t.Fatalf("want a protocol error before hangup: %v", err)
	}
	if typ != wire.FrameError {
		t.Fatalf("frame %q, want error", typ)
	}
	se, err := wire.DecodeError(payload)
	if err != nil || se.Code != wire.CodeProtocol {
		t.Fatalf("error %v %v, want PROTOCOL", se, err)
	}
	if _, _, err := c.ReadRaw(); err != io.EOF {
		t.Fatalf("connection alive after protocol violation: %v", err)
	}
}

// TestOversizedFrameHangsUp: a frame announcing an absurd length is
// refused before allocation — the connection just dies.
func TestOversizedFrameHangsUp(t *testing.T) {
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(workload.Cars(10, 1))}, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], ^uint32(0))
	hdr[4] = wire.FrameQuery
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("oversized frame: %v, want EOF hangup", err)
	}
}

// TestOversizedStatement: a statement above the server's bound answers
// TOO_LARGE and the session keeps serving.
func TestOversizedStatement(t *testing.T) {
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(workload.Cars(10, 1))}, Config{MaxStatement: 64})
	c := dialT(t, addr)
	long := "SELECT oid FROM car WHERE color IN (" + strings.Repeat("'red',", 40) + "'blue')"
	_, err := c.Query(long)
	if se := wireErrOf(t, err); se.Code != wire.CodeTooLarge {
		t.Fatalf("oversized statement: %v, want TOO_LARGE", err)
	}
	if _, err := c.Query("SELECT oid FROM car"); err != nil {
		t.Fatalf("session unusable after TOO_LARGE: %v", err)
	}
}

// TestGracefulDrain: Shutdown closes the listener, running sessions get
// a SHUTDOWN error for new statements plus a drain notice, and the
// server waits for them to leave.
func TestGracefulDrain(t *testing.T) {
	srv, addr := startServer(t, psql.Catalog{"car": relation.Table(workload.Cars(50, 1))}, Config{})
	c := dialT(t, addr)
	if _, err := c.Query("SELECT oid FROM car"); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := shutdownCtx()
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	waitFor(t, "drain to begin", srv.Draining)

	_, err := c.Query("SELECT oid FROM car")
	if se := wireErrOf(t, err); se.Code != wire.CodeShutdown {
		t.Fatalf("statement during drain: %v, want SHUTDOWN", err)
	}
	if notices := c.Notices(); len(notices) == 0 {
		t.Error("no drain notice delivered")
	}
	if _, err := Dial(addr); err == nil {
		t.Error("new connection accepted during drain")
	}
	c.Close()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestShutdownSeversAfterDeadline: a session that refuses to leave is
// severed when the drain budget expires, cancelling its in-flight query.
func TestShutdownSeversAfterDeadline(t *testing.T) {
	sh, snap := shardedCar(t, 200)
	faultinject.Install(snap, 0, faultinject.Fault{Mode: faultinject.Hang})
	defer faultinject.RemoveAll(snap)
	leak := faultinject.LeakCheck()
	srv := New(psql.Catalog{"car": relation.Table(sh)}, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qDone := make(chan error, 1)
	go func() {
		_, err := c.Query(slowQuery)
		qDone <- err
	}()
	waitFor(t, "query to hold a slot", func() bool { return srv.Admission().InFlight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown past its budget: %v, want DeadlineExceeded", err)
	}
	if err := <-qDone; err == nil {
		t.Fatal("severed session's query returned a result")
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	faultinject.RemoveAll(snap)
	if err := leak(); err != nil {
		t.Error(err)
	}
}
