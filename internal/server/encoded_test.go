package server

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/pref"
	"repro/internal/psql"
	"repro/internal/relation"
)

// edgeCar cycles every value kind the codec distinguishes through a
// five-column schema: NULL in each column, the empty and a multibyte
// string, int64 min/max and an INT beyond 2^53, NaN, ±Inf, ±0, both
// bools and a TIME with nanoseconds.
func edgeCar(i int) relation.Row {
	pick := func(vals ...pref.Value) pref.Value { return vals[i%len(vals)] }
	return relation.Row{
		pick(nil, "", "Größe 日本 🚗", "car", "bus"),
		int64(i),
		pick(int64(math.MinInt64), nil, int64(math.MaxInt64), int64(1)<<53+1, int64(-7), int64(i)),
		pick(math.NaN(), math.Inf(1), nil, math.Inf(-1), math.Copysign(0, -1), 0.0, float64(i%17)),
		pick(true, false, nil),
		pick(time.Date(2024, 2, 29, 23, 59, 59, 999999999, time.UTC), nil, time.Unix(int64(i)*3600, 0).UTC()),
	}
}

// TestPersistEncodedAnswerFrames: an answer picked out of a paged table
// reaches the wire as the bytes its pages stored, and its frames are
// byte-identical to those the boxed path encodes for the same rows held
// in memory — for every value kind, over paged base rows mixed with WAL
// tail rows, in two shards, through BMO, ranked TOP, TOP over ORDER BY,
// TOP alone, ORDER BY and projection.
func TestPersistEncodedAnswerFrames(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "s", Type: relation.String},
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "i", Type: relation.Int},
		relation.Column{Name: "f", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Bool},
		relation.Column{Name: "ts", Type: relation.Time},
	)
	flat := relation.New("car", schema)
	for i := 0; i < 400; i++ {
		flat.MustInsert(edgeCar(i))
	}
	mem, err := relation.ShardRelation(flat, 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{PageBytes: 1024, PoolBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	paged, err := st.ImportTable(mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 400; i < 430; i++ { // WAL tail rows on top of the paged base
		mem.MustInsert(edgeCar(i))
		if err := paged.(*relation.Sharded).Insert(edgeCar(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, stmt := range []string{
		"SELECT * FROM car",
		"SELECT * FROM car WHERE oid >= 390",
		"SELECT * FROM car PREFERRING HIGHEST(i) AND LOWEST(ts)",
		"SELECT * FROM car PREFERRING f AROUND 3 AND HIGHEST(oid)",
		"SELECT * FROM car PREFERRING LOWEST(oid) TOP 7",
		"SELECT * FROM car PREFERRING HIGHEST(i) AND LOWEST(oid) TOP 2",
		"SELECT * FROM car WHERE oid >= 300 PREFERRING HIGHEST(i) ORDER BY s DESC",
		"SELECT * FROM car WHERE oid >= 300 PREFERRING HIGHEST(i) AND LOWEST(f) ORDER BY oid TOP 4",
		"SELECT ts, s, f FROM car WHERE oid >= 250 PREFERRING LOWEST(b)",
		"SELECT DISTINCT b, s FROM car",
	} {
		over := func(tbl relation.Table) []byte {
			return answerOver(t, pin{snap: tbl, gen: 7, len: 430}, stmt, psql.Options{})
		}
		got, want := over(paged), over(mem)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the paged answer's frames differ from the in-memory answer's\n got %x\nwant %x", stmt, got, want)
		}
		if len(want) < 64 {
			t.Fatalf("%s: a %d-byte answer tests nothing", stmt, len(want))
		}
	}
	if ps := st.Pool().Stats(); ps.Evictions == 0 {
		t.Fatalf("the pool should evict under this test: %+v", ps)
	}
}
