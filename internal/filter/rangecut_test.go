package filter_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/workload"
)

// scanSource exposes a relation's columns and equality codes but not its
// value orders, so a compile against it takes the scan.
type scanSource struct{ r *relation.Relation }

func (s scanSource) Len() int               { return s.r.Len() }
func (s scanSource) Tuple(i int) pref.Tuple { return s.r.Tuple(i) }
func (s scanSource) NumericColumn(name string) ([]float64, []bool, bool) {
	return s.r.NumericColumn(name)
}
func (s scanSource) EqColumn(name string) ([]uint32, bool) { return s.r.EqColumn(name) }

// BenchmarkRangeCut prices one cold range cut over a 10 000-row shard of
// the cold_skyline table (uniform d4 on [0, 1]) at several selectivities:
// the vectorized column scan against the binary search plus ascending
// emit over the column's value order (built before the timer starts),
// which a cut above half the rows declines. Both compile without the
// selection cache, as a first-seen statement does.
func BenchmarkRangeCut(b *testing.B) {
	pts := workload.Numeric(10000, 4, workload.Independent, 502)
	for _, p := range []struct {
		src  pref.Source
		name string
	}{{scanSource{pts}, "scan"}, {pts, "ordered"}} {
		for _, sel := range []float64{0.001, 0.03, 0.1, 0.5, 1} {
			cut := &filter.Cmp{Attr: "d4", Op: "<=", Value: sel}
			filter.Compile(cut, p.src)
			want := "vectorized" // and so above half the rows, order or not
			if p.name == "ordered" && sel <= 0.5 {
				want = "ordered (driver " + cut.String() + ")"
			}
			if mode := filter.Compile(cut, p.src).Mode(); mode != want {
				b.Fatalf("%s: mode %q, want %q", p.name, mode, want)
			}
			b.Run(fmt.Sprintf("%s/sel=%g%%", p.name, 100*sel), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					filter.Compile(cut, p.src)
				}
			})
		}
	}
}

// The differential battery of the ordered access path: over tables full of
// edge values — NULL, NaN, ±Inf, ±0, INT beyond 2^53, INT/FLOAT twins —
// every predicate's selection read out of value orders (ValueOrderer)
// equals the vectorized scan (scanSource) and the interpreted Cmp.Eval,
// row by row, on the first request for a column (which scans) and later
// ones (which read the order), on flat, sharded and paged sources, on a
// paged table with and without an in-memory tail, and on a pinned older
// snapshot. A table and its predicates are decoded from bytes, so the
// battery's random draws and FuzzRangeCut's corpus run the same check.

var (
	rangeSchema = relation.MustSchema(
		relation.Column{Name: "k", Type: relation.Int},
		relation.Column{Name: "i", Type: relation.Int},
		relation.Column{Name: "f", Type: relation.Float},
		relation.Column{Name: "s", Type: relation.String},
	)
	big     = int64(1)<<53 + 1 // its float image is 2^53: rows i = 2^53 and 2^53+1 tie
	intVals = []pref.Value{nil, int64(0), int64(3), int64(-3), int64(1) << 53, big, -big, int64(math.MaxInt64), int64(1), int64(2)}
	fltVals = []pref.Value{nil, math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1), 3.0, 2.5, float64(1 << 53), 1.0, 0.5}
	strVals = []pref.Value{nil, "a", "b", "c"}
	lits    = []pref.Value{int64(3), 3.0, 0.0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 2.5, big, float64(1 << 53), int64(-1), 1.0}
	ops     = []string{"=", "<>", "<", "<=", ">", ">="}
)

// byteStream hands out the bytes of a fuzz input, then zeros.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

func pick[T any](b *byteStream, from []T) T { return from[b.next()%len(from)] }

// decodeRow draws one row of rangeSchema.
func decodeRow(b *byteStream, k int) relation.Row {
	return relation.Row{int64(k), pick(b, intVals), pick(b, fltVals), pick(b, strVals)}
}

// decodePred draws a predicate tree of at most the given depth over the
// numeric columns (mostly) and the string column.
func decodePred(b *byteStream, depth int) filter.Pred {
	if c := b.next(); depth > 0 {
		switch c % 6 {
		case 0:
			return &filter.And{L: decodePred(b, depth-1), R: decodePred(b, depth-1)}
		case 1:
			return &filter.Or{L: decodePred(b, depth-1), R: decodePred(b, depth-1)}
		case 2:
			return &filter.Not{E: decodePred(b, depth-1)}
		}
	}
	attr := pick(b, []string{"i", "f", "i", "f", "s"})
	op := pick(b, ops)
	if attr == "s" {
		return &filter.Cmp{Attr: attr, Op: op, Value: "b"}
	}
	return &filter.Cmp{Attr: attr, Op: op, Value: pick(b, lits)}
}

// rangeFixture is one source layout under test: its sources (shards, or
// a snapshot beside the live table), how to append a row, and what to do
// before the tail is appended.
type rangeFixture struct {
	sources    func() []*relation.Relation
	insert     func(relation.Row) error
	beforeTail func()
}

// rangeLayouts names the layouts a fixture can take.
var rangeLayouts = []string{"flat", "sharded", "paged", "snapshot"}

// newRangeFixture builds one layout over rows.
func newRangeFixture(t testing.TB, layout string, rows []relation.Row) *rangeFixture {
	flat := relation.New("t", rangeSchema)
	fx := &rangeFixture{
		sources:    func() []*relation.Relation { return []*relation.Relation{flat} },
		insert:     flat.Insert,
		beforeTail: func() {},
	}
	switch layout {
	case "sharded":
		s, err := relation.ShardRelation(flat, 3, relation.ByHash("k"))
		if err != nil {
			t.Fatal(err)
		}
		fx.sources, fx.insert = s.Shards, s.Insert
	case "paged":
		st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{PageBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		r, err := st.CreateTable("t", rangeSchema)
		if err != nil {
			t.Fatal(err)
		}
		fx.sources = func() []*relation.Relation { return []*relation.Relation{r} }
		fx.insert = r.Insert
		defer func() {
			// The base rows become the mmap'd segment; the tail stays in
			// memory until the next checkpoint.
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}()
	case "snapshot":
		// The tail goes to the live table; the snapshot pinned before it
		// keeps the generation (and the orders) the base rows built.
		fx.beforeTail = func() {
			snap := flat.Snapshot()
			fx.sources = func() []*relation.Relation { return []*relation.Relation{snap, flat} }
		}
	}
	for _, row := range rows {
		if err := fx.insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

// rangeStats counts what a battery exercised.
type rangeStats struct{ compiles, ordered int }

// agree compiles p over src twice over — reading value orders, and
// through scanSource — and holds both to Cmp.Eval row by row. A NaN
// literal or <> must never drive an ordered read, and neither may the
// first request for a column (first).
func agree(t testing.TB, what string, p filter.Pred, src *relation.Relation, first bool, st *rangeStats) {
	t.Helper()
	want := []int{}
	for i := 0; i < src.Len(); i++ {
		if p.Eval(src.Tuple(i)) {
			want = append(want, i)
		}
	}
	cd := filter.Compile(p, src)
	if got := cd.Indices(); !slices.Equal(got, want) {
		t.Fatalf("%s: %s (%s) selects %v, Cmp.Eval %v", what, p, cd.Mode(), got, want)
	}
	if got := filter.Compile(p, scanSource{src}).Indices(); !slices.Equal(got, want) {
		t.Fatalf("%s: %s scanned selects %v, Cmp.Eval %v", what, p, got, want)
	}
	st.compiles++
	mode := cd.Mode()
	if !strings.HasPrefix(mode, "ordered") {
		return
	}
	st.ordered++
	if first {
		t.Fatalf("%s: %s: the first request for its columns read an order (%s)", what, p, mode)
	}
	if strings.Contains(mode, "<>") || strings.Contains(mode, "NaN") {
		t.Fatalf("%s: %s: a <> or NaN comparison drove an ordered read (%s)", what, p, mode)
	}
}

// checkRangeCut decodes one table and predicate set from data and runs the
// agreement over the chosen layout: each predicate twice on the base rows
// (first and second request), then once more after a tail is appended.
func checkRangeCut(t testing.TB, data []byte, st *rangeStats) {
	b := byteStream(data)
	layout := pick(&b, rangeLayouts)
	n, tail := 1+b.next()%40, b.next()%6
	rows := make([]relation.Row, n)
	for k := range rows {
		rows[k] = decodeRow(&b, k)
	}
	preds := make([]filter.Pred, 1+b.next()%4)
	for j := range preds {
		preds[j] = decodePred(&b, 3)
	}
	fx := newRangeFixture(t, layout, rows)
	for j, p := range preds {
		for req, src := range fx.sources() {
			agree(t, fmt.Sprintf("%s source %d, first request", layout, req), p, src, j == 0, st)
			agree(t, fmt.Sprintf("%s source %d, second request", layout, req), p, src, false, st)
		}
	}
	fx.beforeTail()
	for k := 0; k < tail; k++ {
		if err := fx.insert(decodeRow(&b, n+k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range preds {
		for req, src := range fx.sources() {
			agree(t, fmt.Sprintf("%s source %d, %d-row tail", layout, req, tail), p, src, false, st)
		}
	}
}

// TestRangeCutDifferential runs the battery: every operator against every
// edge literal as a lone leaf on each numeric column, bound pairs on one
// column, then random tables and trees decoded from seeded bytes — on
// every layout.
func TestRangeCutDifferential(t *testing.T) {
	var st rangeStats
	rng := rand.New(rand.NewSource(24))
	for _, layout := range rangeLayouts {
		rows := make([]relation.Row, 64)
		for k := range rows {
			rows[k] = relation.Row{int64(k), intVals[rng.Intn(len(intVals))], fltVals[rng.Intn(len(fltVals))], strVals[rng.Intn(len(strVals))]}
		}
		fx := newRangeFixture(t, layout, rows)
		for _, attr := range []string{"i", "f"} {
			for _, op := range ops {
				for _, lit := range lits {
					p := &filter.Cmp{Attr: attr, Op: op, Value: lit}
					for _, src := range fx.sources() {
						agree(t, layout+" leaf", p, src, false, &st)
						for _, op2 := range ops {
							q := &filter.Cmp{Attr: attr, Op: op2, Value: lits[rng.Intn(len(lits))]}
							agree(t, layout+" bound pair", &filter.And{L: p, R: q}, src, false, &st)
						}
					}
				}
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 256)
		rng.Read(data)
		checkRangeCut(t, data, &st)
	}
	t.Logf("%d compiles, %d read out of a value order", st.compiles, st.ordered)
	if st.ordered < st.compiles/10 {
		t.Fatalf("only %d of %d compiles took the ordered path: the battery does not exercise it", st.ordered, st.compiles)
	}
}

// FuzzRangeCut is the battery's fuzz target: a table, a layout and a few
// predicate trees decoded from arbitrary bytes must select the same rows
// through value orders, through the scan and through Cmp.Eval. Its seed
// corpus runs under plain go test; `go test -run xxx -fuzz FuzzRangeCut
// ./internal/filter` explores further.
func FuzzRangeCut(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 39, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("\x01\x20\x03sharded rows and a tail, NaN literals <= >="))
	f.Add([]byte("\x02\x27\x05paged: segment base, WAL tail \x00\x01\x02\x03\x04"))
	f.Add([]byte("\x03\x18\x04snapshot pinned before the tail \xff\xfe\xfd"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRangeCut(t, data, &rangeStats{})
	})
}
