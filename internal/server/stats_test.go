package server

import (
	"strconv"
	"testing"

	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestStatsTurn pins the stats frame turn: the client's Stats() returns
// the server counters, and with a persistent store installed via
// SetStatus the report carries buffer-pool (validations beside misses),
// WAL, open-epoch and per-shard segment figures that move with the
// workload; the retained-answer counters
// count a byte-served repeat and fall to 0 when its session closes.
func TestStatsTurn(t *testing.T) {
	st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mem := workload.Cars(500, 3)
	tbl, err := st.ImportTable(mem)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, psql.Catalog{"car": tbl}, Config{})
	srv.SetStatus(StoreStatus(st))

	c := dialT(t, addr)
	if _, err := c.Query("SELECT oid FROM car PREFERRING LOWEST(price)"); err != nil {
		t.Fatal(err)
	}
	byKey := statsOf(t, c)
	if byKey["server.queries"] != "1" {
		t.Fatalf("server.queries = %q, want 1 (report: %v)", byKey["server.queries"], byKey)
	}
	for _, key := range []string{
		"pool.hits", "pool.misses", "pool.validations", "pool.hit_rate", "pool.resident_pages",
		"pool.cap_bytes", "wal.bytes", "segments.bytes", "store.epochs_open",
		"shard.car/s0.segment_bytes", "shard.car/s0.wal_bytes", "shard.car/s0.tail_rows",
	} {
		if _, ok := byKey[key]; !ok {
			t.Fatalf("report lacks %q: %v", key, byKey)
		}
	}
	if n, err := strconv.ParseInt(byKey["segments.bytes"], 10, 64); err != nil || n <= 0 {
		t.Fatalf("segments.bytes = %q, want positive", byKey["segments.bytes"])
	}
	if n, err := strconv.ParseInt(byKey["pool.cap_bytes"], 10, 64); err != nil || n != 1<<20 {
		t.Fatalf("pool.cap_bytes = %q, want %d", byKey["pool.cap_bytes"], 1<<20)
	}

	// The query path decodes pages through the pool, so misses+hits
	// must have moved.
	hits, _ := strconv.ParseInt(byKey["pool.hits"], 10, 64)
	misses, _ := strconv.ParseInt(byKey["pool.misses"], 10, 64)
	if hits+misses == 0 {
		t.Fatalf("pool never touched: %v", byKey)
	}
	// A page is validated by its first load only: never more validations
	// than misses, and at least one.
	if v, _ := strconv.ParseInt(byKey["pool.validations"], 10, 64); v < 1 || v > misses {
		t.Fatalf("pool.validations = %q with %d misses", byKey["pool.validations"], misses)
	}
	// One flat table, one epoch; a checkpoint supersedes it, which stays
	// open until the store closes.
	if byKey["store.epochs_open"] != "1" {
		t.Fatalf("store.epochs_open = %q, want 1", byKey["store.epochs_open"])
	}
	if err := tbl.(*relation.Relation).Insert(mem.Row(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := statsOf(t, c)["store.epochs_open"]; got != "2" {
		t.Fatalf("store.epochs_open after a checkpoint = %q, want 2", got)
	}

	// A hot statement sent three times by a second session: the third is
	// answered with the retained bytes, which the session releases when it
	// closes.
	hot := dialT(t, addr)
	for i := 0; i < 3; i++ {
		if _, err := hot.Query("SELECT oid FROM car PREFERRING HIGHEST(horsepower)"); err != nil {
			t.Fatal(err)
		}
	}
	byKey = statsOf(t, c)
	if byKey["server.result_bytes_hits"] != "1" {
		t.Fatalf("server.result_bytes_hits = %q, want 1", byKey["server.result_bytes_hits"])
	}
	if n, err := strconv.ParseInt(byKey["server.result_bytes_retained"], 10, 64); err != nil || n <= 0 {
		t.Fatalf("server.result_bytes_retained = %q, want positive", byKey["server.result_bytes_retained"])
	}
	hot.Close()
	waitFor(t, "the hot session's bytes to be released", func() bool { return srv.Metrics().ResultBytesRetained == 0 })
	if got := statsOf(t, c)["server.result_bytes_retained"]; got != "0" {
		t.Fatalf("server.result_bytes_retained after close = %q, want 0", got)
	}

	// An in-memory server (no provider) still answers with its own
	// counters only.
	srv.SetStatus(nil)
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.Key == "pool.hits" {
			t.Fatalf("provider entries survived SetStatus(nil): %v", stats)
		}
	}
}

// statsOf asks for a status report and indexes it by key.
func statsOf(t *testing.T, c *Client) map[string]string {
	t.Helper()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]string{}
	for _, s := range stats {
		byKey[s.Key] = s.Val
	}
	return byKey
}
