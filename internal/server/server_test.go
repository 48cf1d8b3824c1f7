package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pref"
	"repro/internal/psql"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startServer spins up a server over the catalog on a loopback listener
// and tears it down (with a goroutine-leak check) at cleanup.
func startServer(t *testing.T, cat psql.Catalog, cfg Config) (*Server, string) {
	t.Helper()
	leak := faultinject.LeakCheck()
	srv := New(cat, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := shutdownCtx()
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		if err := leak(); err != nil {
			t.Error(err)
		}
	})
	return srv, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// agreementQueries is the 15-statement psql agreement suite (the same
// statements the engine's flat/sharded equivalence tests use) plus the
// ranked and EXPLAIN shapes the serving layer adds.
var agreementQueries = []string{
	"SELECT oid FROM car WHERE price <= 40000",
	"SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)",
	"SELECT oid FROM car WHERE mileage <= 80000 PREFERRING LOWEST(price) AND HIGHEST(horsepower)",
	"SELECT oid FROM car PREFERRING color IN ('red') PRIOR TO LOWEST(price)",
	"SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY color",
	"SELECT oid FROM car WHERE horsepower >= 80 PREFERRING LOWEST(price) GROUPING BY make, color",
	"SELECT oid FROM car PREFERRING LOWEST(price) CASCADE HIGHEST(horsepower)",
	"SELECT oid FROM car PREFERRING price AROUND 30000 BUT ONLY level(price) <= 2",
	"SELECT oid FROM car PREFERRING price AROUND 30000 CASCADE HIGHEST(horsepower) BUT ONLY level(price) <= 2",
	"SELECT oid FROM car PREFERRING price AROUND 30000 GROUPING BY color BUT ONLY level(price) <= 2",
	"SELECT oid FROM car WHERE mileage <= 90000 PREFERRING price AROUND 30000 BUT ONLY level(price) <= 1",
	"SELECT oid FROM car SKYLINE OF price MIN, horsepower MAX",
	"SELECT oid FROM car WHERE price <= 45000 SKYLINE OF price MIN, mileage MIN",
	"SELECT oid FROM car PREFERRING price AROUND 30000 TOP 7",
	"SELECT oid, price FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) ORDER BY price, oid",
	"SELECT oid FROM car PREFERRING RANK(price AROUND 30000, HIGHEST(horsepower)) TOP 10",
	"SELECT DISTINCT make FROM car WHERE price <= 35000",
}

// renderRows canonicalizes rows for comparison: the wire widens every
// integer to int64, so values render through pref.FormatValue (identical
// text for int 5 and int64 5) rather than comparing Go types.
func renderRows(rows []relation.Row) string {
	var b strings.Builder
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(pref.FormatValue(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderRel canonicalizes a relation's rows the same way.
func renderRel(rel *relation.Relation) string {
	rows := make([]relation.Row, rel.Len())
	for i := range rows {
		rows[i] = rel.Row(i)
	}
	return renderRows(rows)
}

// testWireAgreement runs the agreement suite through a real client
// connection and requires each result to render identically to a direct
// in-process psql execution over the same table.
func testWireAgreement(t *testing.T, tbl relation.Table) {
	t.Helper()
	cat := psql.Catalog{"car": tbl}
	_, addr := startServer(t, cat, Config{})
	c := dialT(t, addr)
	for _, query := range agreementQueries {
		rs, err := c.Query(query)
		if err != nil {
			t.Fatalf("%s: wire: %v", query, err)
		}
		direct, err := psql.Run(query, cat, psql.Options{})
		if err != nil {
			t.Fatalf("%s: direct: %v", query, err)
		}
		if got, want := renderRows(rs.Rows()), renderRel(direct); got != want {
			t.Errorf("%s:\nwire:   %sdirect: %s", query, got, want)
		}
		if rs.Header.SnapLen != uint64(tbl.Len()) {
			t.Errorf("%s: header SnapLen %d, want %d", query, rs.Header.SnapLen, tbl.Len())
		}
	}
}

func TestWireAgreementFlat(t *testing.T) {
	testWireAgreement(t, workload.Cars(400, 99))
}

func TestWireAgreementSharded(t *testing.T) {
	for _, nShards := range []int{1, 3, 6} {
		sh, err := relation.ShardRelation(workload.Cars(400, 99), nShards, relation.ByHash("oid"))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sh.String(), func(t *testing.T) { testWireAgreement(t, sh) })
	}
}

// TestWireStreamAgreement compares progressive wire delivery against a
// direct ExecStream: same rows, same confirmation order.
func TestWireStreamAgreement(t *testing.T) {
	car := workload.Cars(300, 5)
	cat := psql.Catalog{"car": relation.Table(car)}
	_, addr := startServer(t, cat, Config{})
	c := dialT(t, addr)
	for _, query := range []string{
		"SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)",
		"SELECT oid, price FROM car WHERE price <= 40000 PREFERRING HIGHEST(horsepower)",
		"SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY color", // batch fallback
	} {
		var got []relation.Row
		hdr, n, err := c.Stream(query, func(row relation.Row) bool {
			got = append(got, row)
			return true
		})
		if err != nil {
			t.Fatalf("%s: wire stream: %v", query, err)
		}
		if n != len(got) {
			t.Fatalf("%s: stream counted %d, yielded %d", query, n, len(got))
		}
		if len(hdr.Cols) == 0 {
			t.Fatalf("%s: stream header missing columns", query)
		}
		var want []relation.Row
		if _, err := psql.RunStream(query, cat, psql.Options{}, func(row relation.Row) bool {
			want = append(want, row)
			return true
		}); err != nil {
			t.Fatalf("%s: direct stream: %v", query, err)
		}
		if g, w := renderRows(got), renderRows(want); g != w {
			t.Errorf("%s:\nwire:   %sdirect: %s", query, g, w)
		}
	}
}

// TestWireStreamEarlyStop stops a stream after 3 rows: the client
// cancels the turn, the server abandons the rest, and the connection
// stays usable for the next statement.
func TestWireStreamEarlyStop(t *testing.T) {
	car := workload.Cars(500, 5)
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(car)}, Config{})
	c := dialT(t, addr)
	n := 0
	_, got, err := c.Stream("SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)", func(relation.Row) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatalf("early-stopped stream: %v", err)
	}
	if got < 3 {
		t.Fatalf("stream yielded %d rows before stop, want >= 3", got)
	}
	if _, err := c.Query("SELECT oid FROM car WHERE price <= 20000"); err != nil {
		t.Fatalf("connection unusable after early stop: %v", err)
	}
}

// TestPreparedStatements covers the session-command round on a flat and
// a 3-shard table: PREPARE, repeated EXECUTE agreeing with direct
// execution, DEALLOCATE, and fresh snapshots per EXECUTE. A prepared
// statement runs the pipeline like any other, so a RANK term — keyed by
// its weights and parts — scores off its cached vectors from the second
// EXECUTE on: no score-cache miss after the first.
func TestPreparedStatements(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			car := workload.Cars(400, 99)
			tbl := relation.Table(car)
			if shards > 1 {
				s, err := relation.ShardRelation(car, shards, relation.ByHash("oid"))
				if err != nil {
					t.Fatal(err)
				}
				tbl = s
			}
			cat := psql.Catalog{"car": tbl}
			_, addr := startServer(t, cat, Config{})
			c := dialT(t, addr)

			for _, stmt := range []struct{ name, query string }{
				{"bmo", "SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)"},
				{"ranked", "SELECT * FROM car PREFERRING RANK(price AROUND 30000, HIGHEST(horsepower)) TOP 10"},
			} {
				if _, err := c.Query("PREPARE " + stmt.name + " AS " + stmt.query); err != nil {
					t.Fatalf("prepare %s: %v", stmt.name, err)
				}
				direct, err := psql.Run(stmt.query, cat, psql.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want := renderRel(direct)
				var hits, misses uint64
				for round := 0; round < 3; round++ {
					rs, err := c.Query("EXECUTE " + stmt.name)
					if err != nil {
						t.Fatalf("execute %s round %d: %v", stmt.name, round, err)
					}
					if got := renderRows(rs.Rows()); got != want {
						t.Errorf("execute %s round %d:\nwire:   %sdirect: %s", stmt.name, round, got, want)
					}
					h, m := rank.ScoreCacheStats()
					if round > 0 && stmt.name == "ranked" && (m != misses || h == hits) {
						t.Errorf("execute %s round %d must score off its cached vectors: hits %d → %d, misses %d → %d",
							stmt.name, round, hits, h, misses, m)
					}
					hits, misses = h, m
				}
			}
			if _, err := c.Query("DEALLOCATE ranked"); err != nil {
				t.Fatal(err)
			}
			_, err := c.Query("EXECUTE ranked")
			if se := wireErrOf(t, err); se.Code != wire.CodeExec {
				t.Fatalf("execute after deallocate: %v", err)
			}
			// The prepared statement keeps answering over fresh snapshots: an
			// insert must show up in the next EXECUTE of a full-table scan.
			if _, err := c.Query("PREPARE all AS SELECT oid FROM car WHERE price <= 1000000"); err != nil {
				t.Fatal(err)
			}
			before, err := c.Query("EXECUTE all")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Insert("car", carRow(car, 999999)); err != nil {
				t.Fatal(err)
			}
			after, err := c.Query("EXECUTE all")
			if err != nil {
				t.Fatal(err)
			}
			if after.Len() != before.Len()+1 {
				t.Fatalf("prepared statement pinned a stale snapshot: %d then %d rows", before.Len(), after.Len())
			}
		})
	}
}

// TestRankTextsShareScoreVector: two ad-hoc RANK statements that differ
// only in whitespace are two parse-cache texts but one term, so the
// second scores off the vector the first bound.
func TestRankTextsShareScoreVector(t *testing.T) {
	car := workload.Cars(400, 98)
	_, addr := startServer(t, psql.Catalog{"car": car}, Config{})
	c := dialT(t, addr)
	first, err := c.Query("SELECT oid FROM car PREFERRING RANK(price AROUND 25000, HIGHEST(horsepower)) TOP 5")
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := rank.ScoreCacheStats()
	second, err := c.Query("SELECT oid FROM car  PREFERRING RANK( price AROUND 25000 ,\n\tHIGHEST(horsepower) ) TOP 5")
	if err != nil {
		t.Fatal(err)
	}
	if h1, m1 := rank.ScoreCacheStats(); m1 != m0 || h1 == h0 {
		t.Fatalf("a whitespace variant must score off the first one's vector: hits %d → %d, misses %d → %d", h0, h1, m0, m1)
	}
	if got, want := renderRows(second.Rows()), renderRows(first.Rows()); got != want {
		t.Fatalf("whitespace variant answered differently:\n%s\nvs\n%s", got, want)
	}
}

// carRow clones row 0 of the table with a fresh oid.
func carRow(car *relation.Relation, oid int64) relation.Row {
	row := append(relation.Row(nil), car.Row(0)...)
	row[0] = oid
	return row
}

// wireErrOf asserts err is a typed *wire.ServerError and returns it.
func wireErrOf(t *testing.T, err error) *wire.ServerError {
	t.Helper()
	if err == nil {
		t.Fatal("want a typed wire error, got success")
	}
	se, ok := err.(*wire.ServerError)
	if !ok {
		t.Fatalf("not a typed wire error: %v (%T)", err, err)
	}
	return se
}

// TestInsertVisibilityAndSnapshotPin: a wire insert becomes visible to
// later queries (monotonically growing SnapLen) and the ack carries the
// new table length.
func TestInsertVisibilityAndSnapshotPin(t *testing.T) {
	car := workload.Cars(50, 1)
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(car)}, Config{})
	c := dialT(t, addr)
	rs, err := c.Query("SELECT oid FROM car WHERE price <= 1000000")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Header.SnapLen != 50 {
		t.Fatalf("initial SnapLen %d", rs.Header.SnapLen)
	}
	n, err := c.Insert("car", carRow(car, 777))
	if err != nil {
		t.Fatal(err)
	}
	if n != 51 {
		t.Fatalf("insert ack %d, want 51", n)
	}
	rs, err = c.Query("SELECT oid FROM car WHERE oid = 777")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Header.SnapLen != 51 {
		t.Fatalf("inserted row not visible: %d rows, SnapLen %d", rs.Len(), rs.Header.SnapLen)
	}
	// Bad inserts answer typed INSERT errors and leave the session usable.
	if _, err := c.Insert("nope", relation.Row{int64(1)}); wireErrOf(t, err).Code != "INSERT" {
		t.Fatalf("unknown table: %v", err)
	}
	if _, err := c.Insert("car", relation.Row{int64(1)}); wireErrOf(t, err).Code != "INSERT" {
		t.Fatalf("arity: %v", err)
	}
	if _, err := c.Query("SELECT oid FROM car WHERE oid = 777"); err != nil {
		t.Fatalf("session unusable after insert errors: %v", err)
	}
}

// TestSessionSet covers session-option assignment and its typed errors.
func TestSessionSet(t *testing.T) {
	car := workload.Cars(20, 1)
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(car)}, Config{})
	c := dialT(t, addr)
	if err := c.Set("timeout", "2s"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("policy", "partial"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("shard_timeout", "100ms"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("policy", "bogus"); wireErrOf(t, err).Code != "SET" {
		t.Fatalf("bad policy: %v", err)
	}
	if err := c.Set("nope", "1"); wireErrOf(t, err).Code != "SET" {
		t.Fatalf("unknown key: %v", err)
	}
	if _, err := c.Query("SELECT oid FROM car WHERE price <= 1000000"); err != nil {
		t.Fatalf("session unusable after set errors: %v", err)
	}
}

// TestParseAndExecErrors: malformed SQL and unknown tables answer typed
// errors and the session keeps serving.
func TestParseAndExecErrors(t *testing.T) {
	car := workload.Cars(20, 1)
	_, addr := startServer(t, psql.Catalog{"car": relation.Table(car)}, Config{})
	c := dialT(t, addr)
	_, err := c.Query("SELEKT banana")
	if wireErrOf(t, err).Code != "PARSE" {
		t.Fatalf("parse error: %v", err)
	}
	_, err = c.Query("SELECT oid FROM nope")
	if wireErrOf(t, err).Code != "EXEC" {
		t.Fatalf("unknown table: %v", err)
	}
	if _, err := c.Query("SELECT oid FROM car WHERE price <= 1000000"); err != nil {
		t.Fatalf("session unusable after errors: %v", err)
	}
}

func shutdownCtx() (ctx context.Context, cancel context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}
