package server

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// rawTurn sends one query frame and returns the turn's frames as they
// crossed the wire — length, type and payload each — through the closing
// ready or error frame.
func rawTurn(t *testing.T, c *Client, stmt string) []byte {
	t.Helper()
	if err := c.RawFrame(wire.FrameQuery, []byte(stmt)); err != nil {
		t.Fatal(err)
	}
	var out []byte
	for {
		typ, payload, err := c.ReadRaw()
		if err != nil {
			t.Fatal(err)
		}
		start := len(out)
		out = append(wire.BeginFrame(out, typ), payload...)
		if err := wire.EndFrame(out, start); err != nil {
			t.Fatal(err)
		}
		if typ == wire.FrameReady || typ == wire.FrameError {
			return out
		}
	}
}

// turnHeader decodes the header frame at the start of a raw turn.
func turnHeader(t *testing.T, turn []byte) wire.Header {
	t.Helper()
	if len(turn) < 5 || turn[4] != wire.FrameHeader {
		t.Fatalf("turn does not open with a header frame: % x", turn[:min(len(turn), 16)])
	}
	n := int(turn[0])<<24 | int(turn[1])<<16 | int(turn[2])<<8 | int(turn[3])
	h, err := wire.DecodeHeader(turn[5 : 4+n])
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// freshAnswer executes stmt directly over the current snapshot of tbl —
// no server, no session — and encodes the answer the way a session does.
func freshAnswer(t *testing.T, tbl relation.Table, stmt string, opts psql.Options) []byte {
	t.Helper()
	p, err := New(psql.Catalog{"car": tbl}, Config{}).snapshotTable("car")
	if err != nil {
		t.Fatal(err)
	}
	return answerOver(t, p, stmt, opts)
}

// answerOver executes stmt over a pinned snapshot and encodes it.
func answerOver(t *testing.T, p pin, stmt string, opts psql.Options) []byte {
	t.Helper()
	q, err := psql.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := psql.ExecCtx(context.Background(), q, psql.Catalog{"car": p.snap}, opts)
	if err != nil {
		t.Fatal(err)
	}
	partial := ""
	if res.Partial != nil {
		partial = res.Partial.Error()
	}
	out, err := appendResult(nil, res.Rel, p.gen, p.len, partial)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// answerHarness serves one catalog table and checks each turn against a
// fresh execution and against the server's byte-served counter.
type answerHarness struct {
	t    *testing.T
	srv  *Server
	cat  psql.Catalog
	addr string
	c    *Client
	opts psql.Options // mirrors what the test SET on c
}

// table is the live catalog table.
func (h *answerHarness) table() relation.Table {
	h.srv.catMu.RLock()
	defer h.srv.catMu.RUnlock()
	return h.cat["car"]
}

// query runs stmt on c, requires it to be byte-served exactly when
// served is set, and — when fresh is set — byte-identical to a fresh
// execution over the table's current generation. It returns the turn.
func (h *answerHarness) query(c *Client, stmt string, served, fresh bool) []byte {
	h.t.Helper()
	before := h.srv.Metrics().ResultBytesHits
	got := rawTurn(h.t, c, stmt)
	if hits := h.srv.Metrics().ResultBytesHits - before; hits != map[bool]uint64{false: 0, true: 1}[served] {
		h.t.Fatalf("%s: %d byte-served answers, want served=%v", stmt, hits, served)
	}
	if got[4] == wire.FrameError {
		se, _ := wire.DecodeError(got[5:])
		h.t.Fatalf("%s: %v", stmt, se)
	}
	if fresh {
		if want := freshAnswer(h.t, h.table(), stmt, h.opts); !bytes.Equal(got, want) {
			h.t.Fatalf("%s (served=%v): %d bytes differ from the %d of a fresh execution", stmt, served, len(got), len(want))
		}
	}
	return got
}

// retained is the server's retained answer total.
func (h *answerHarness) retained() uint64 { return h.srv.Metrics().ResultBytesRetained }

// repeat runs stmt three times in a fresh session's history: executed,
// executed and retained, then served.
func (h *answerHarness) repeat(c *Client, stmt string) []byte {
	h.t.Helper()
	h.query(c, stmt, false, true)
	h.query(c, stmt, false, true)
	return h.query(c, stmt, true, true)
}

const answerStmt = "SELECT oid, price FROM car PREFERRING price AROUND 30000 AND HIGHEST(horsepower)"

// TestResultBytesServeFreshAnswers pins the retained-answer path: a
// repeated batch statement is answered with frames equal, byte for byte,
// to a fresh execution at the same table generation — across flat,
// sharded and persistent tables, sessions, inserts, SET changes, the
// parse cache's wholesale clear, Catalog.Replace and Reshard — and
// nothing is retained for EXPLAIN, PREPARE/EXECUTE, streams, partial
// results or answers above answerBytesMax.
func TestResultBytesServeFreshAnswers(t *testing.T) {
	sharded := func(t *testing.T, rows int) relation.Table {
		sh, err := relation.ShardRelation(workload.Cars(rows, 41), 3, relation.ByHash("oid"))
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	flat := func(_ *testing.T, rows int) relation.Table { return workload.Cars(rows, 41) }
	persistent := func(t *testing.T, rows int) relation.Table {
		st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{PoolBytes: 1 << 20, PageBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() }) // after the server's shutdown
		mem, err := relation.ShardRelation(workload.Cars(rows, 41), 2, relation.ByHash("oid"))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := st.ImportTable(mem)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	insert := func(h *answerHarness, oid int64) {
		h.t.Helper()
		row := append(relation.Row(nil), workload.Cars(1, 7).Row(0)...)
		row[0] = oid
		if _, err := h.c.Insert("car", row); err != nil {
			h.t.Fatal(err)
		}
	}
	// inserts: an insert between repeats re-executes under a newer header;
	// the bytes served before it stay the answer of the generation a
	// reader pinned then.
	inserts := func(h *answerHarness) {
		before := h.repeat(h.c, answerStmt)
		pinned, err := h.srv.snapshotTable("car")
		if err != nil {
			h.t.Fatal(err)
		}
		insert(h, 9_000_001)
		after := h.query(h.c, answerStmt, false, true)
		hb, ha := turnHeader(h.t, before), turnHeader(h.t, after)
		if ha.SnapVersion <= hb.SnapVersion || ha.SnapLen != hb.SnapLen+1 {
			h.t.Fatalf("header after an insert: v%d over %d rows, before v%d over %d", ha.SnapVersion, ha.SnapLen, hb.SnapVersion, hb.SnapLen)
		}
		if old := answerOver(h.t, pinned, answerStmt, psql.Options{}); !bytes.Equal(before, old) {
			h.t.Fatal("bytes served before the insert are not the pinned generation's answer")
		}
		h.query(h.c, answerStmt, true, true)
	}
	cases := []struct {
		name  string
		table func(*testing.T, int) relation.Table
		rows  int
		run   func(h *answerHarness)
	}{
		{"flat/inserts", flat, 300, inserts},
		{"sharded/inserts", sharded, 300, inserts},
		{"persistent/inserts", persistent, 300, inserts},
		{"flat/two-sessions", flat, 300, func(h *answerHarness) {
			a := h.repeat(h.c, answerStmt)
			other := dialT(h.t, h.addr)
			if b := h.repeat(other, answerStmt); !bytes.Equal(a, b) {
				h.t.Fatal("two sessions serve different bytes at one generation")
			}
			if got := h.retained(); got != 2*uint64(len(a)) {
				h.t.Fatalf("retained %d bytes, want two answers of %d", got, len(a))
			}
			other.Close()
			waitFor(h.t, "the closed session's bytes to be released", func() bool { return h.retained() == uint64(len(a)) })
			h.query(h.c, answerStmt, true, true)
		}},
		{"sharded/set", sharded, 300, func(h *answerHarness) {
			h.repeat(h.c, answerStmt)
			for _, kv := range [][2]string{{"policy", "partial"}, {"timeout", "5s"}, {"shard_timeout", "1s"}, {"policy", "strict"}} {
				if err := h.c.Set(kv[0], kv[1]); err != nil {
					h.t.Fatal(err)
				}
				h.query(h.c, answerStmt, true, true)
			}
		}},
		{"sharded/never-retained", sharded, 300, func(h *answerHarness) {
			for _, stmt := range []string{
				"EXPLAIN " + answerStmt,
				"EXECUTE p",
			} {
				if stmt == "EXECUTE p" {
					if _, err := h.c.Query("PREPARE p AS " + answerStmt); err != nil {
						h.t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ {
					h.query(h.c, stmt, false, false)
				}
			}
			for i := 0; i < 3; i++ {
				if _, _, err := h.c.Stream(answerStmt, func(relation.Row) bool { return true }); err != nil {
					h.t.Fatal(err)
				}
			}
			if got := h.retained(); got != 0 {
				h.t.Fatalf("retained %d bytes for EXPLAIN, EXECUTE and streams", got)
			}
			// A partial answer executes every time; once complete again the
			// statement is retained like any other.
			snap := h.table().(*relation.Sharded).Snapshot()
			faultinject.Install(snap, 0, faultinject.Fault{Mode: faultinject.Panic})
			defer faultinject.RemoveAll(snap)
			if err := h.c.Set("policy", "partial"); err != nil {
				h.t.Fatal(err)
			}
			h.opts.Robust.Policy = relation.PolicyPartial
			const partialStmt = "SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)"
			for i := 0; i < 3; i++ {
				rs, err := h.c.Query(partialStmt)
				if err != nil || rs.Partial == "" {
					h.t.Fatalf("want a partial answer: %v (%q)", err, rs.Partial)
				}
			}
			if got, hits := h.retained(), h.srv.Metrics().ResultBytesHits; got != 0 || hits != 0 {
				h.t.Fatalf("partial answers: retained %d bytes, %d served", got, hits)
			}
			faultinject.RemoveAll(snap)
			h.query(h.c, partialStmt, false, true)
			h.query(h.c, partialStmt, true, true)
		}},
		{"flat/oversize", flat, 1500, func(h *answerHarness) {
			const all = "SELECT * FROM car WHERE price >= 0"
			for i := 0; i < 3; i++ {
				if got := h.query(h.c, all, false, true); len(got) <= answerBytesMax {
					h.t.Fatalf("test premise: answer of %d bytes, want above %d", len(got), answerBytesMax)
				}
			}
			if got := h.retained(); got != 0 {
				h.t.Fatalf("retained %d bytes of an oversize answer", got)
			}
		}},
		{"flat/parse-cache-clear", flat, 300, func(h *answerHarness) {
			h.repeat(h.c, answerStmt)
			for i := 0; i < parseCacheCap; i++ {
				h.query(h.c, fmt.Sprintf("SELECT oid FROM car WHERE price <= %d", 1000+i), false, false)
			}
			if got := h.retained(); got != 0 {
				h.t.Fatalf("retained %d bytes after the parse cache cleared", got)
			}
			h.repeat(h.c, answerStmt)
		}},
		{"flat/replace", flat, 300, func(h *answerHarness) {
			before := h.repeat(h.c, answerStmt)
			next := workload.Cars(300, 42) // the same Version as the table it replaces
			if next.Version() != h.table().(*relation.Relation).Version() {
				h.t.Fatal("test premise: the replacement must share the version")
			}
			h.srv.catMu.Lock()
			h.cat.Replace("car", next)
			h.srv.catMu.Unlock()
			if after := h.query(h.c, answerStmt, false, true); bytes.Equal(after, before) {
				h.t.Fatal("test premise: the replacement must answer differently")
			}
			h.query(h.c, answerStmt, true, true)
		}},
		{"sharded/reshard", sharded, 300, func(h *answerHarness) {
			versions := []uint64{turnHeader(h.t, h.repeat(h.c, answerStmt)).SnapVersion}
			insert(h, 9_000_002)
			versions = append(versions, turnHeader(h.t, h.query(h.c, answerStmt, false, true)).SnapVersion)
			h.query(h.c, answerStmt, true, true)
			if _, err := h.table().(*relation.Sharded).Reshard(2, nil); err != nil {
				h.t.Fatal(err)
			}
			versions = append(versions, turnHeader(h.t, h.query(h.c, answerStmt, false, true)).SnapVersion)
			h.query(h.c, answerStmt, true, true)
			for i := 1; i < len(versions); i++ {
				if versions[i] <= versions[i-1] {
					h.t.Fatalf("SnapVersion went %v across insert and reshard, want strictly increasing", versions)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := psql.Catalog{"car": tc.table(t, tc.rows)}
			srv, addr := startServer(t, cat, Config{})
			h := &answerHarness{t: t, srv: srv, cat: cat, addr: addr, c: dialT(t, addr)}
			tc.run(h)
		})
	}
}

// TestResultBytesBudget: answers are retained only while the server-wide
// total stays within answerBytesBudget; past it a repeat simply executes.
func TestResultBytesBudget(t *testing.T) {
	srv, addr := startServer(t, psql.Catalog{"car": relation.Table(workload.Cars(200, 5))}, Config{})
	h := &answerHarness{t: t, srv: srv, cat: srv.cat, addr: addr, c: dialT(t, addr)}
	srv.answerBytes.Add(answerBytesBudget - 10) // all but ten bytes spent elsewhere
	h.query(h.c, answerStmt, false, true)
	h.query(h.c, answerStmt, false, true)
	h.query(h.c, answerStmt, false, true)
	if got := h.retained(); got != answerBytesBudget-10 {
		t.Fatalf("retained %d, want the budget untouched at %d", got, answerBytesBudget-10)
	}
	srv.answerBytes.Add(-(answerBytesBudget - 10))
	h.query(h.c, answerStmt, false, true)
	h.query(h.c, answerStmt, true, true)
}
