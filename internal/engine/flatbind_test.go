package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/pref"
	"repro/internal/relation"
)

// The fused route of a cold flat statement against its two references. A
// gathered bind of a term in the flat fragment (pref.BindFlat) must write,
// slot by slot, the scores a fresh pref.Compile over relation.Gathered
// derives and tie keys of the same classes — word for word where the
// float image decides equality — and the maxima it evaluates, per shard
// and through the cross-shard fold on the carried records (or on records
// bound from the maxima, as a cache-served shard is folded), must equal
// the interpreted BNL oracle's. A table, a layout, a term and the
// candidates are decoded from bytes, the values drawn from the edges
// FuzzRangeCut's generator draws — NULL, NaN, ±Inf, ±0, INT beyond 2^53,
// int/float twins — plus TIME instants within one second, which tie on
// the score scale without being equal. On the whole-shard route the
// shards keep value orders of the term's columns (built before a tail is
// appended) and the candidates are what the sorted walk reaches with its
// limit lifted: their maxima must equal the oracle's over every row.

var (
	bindSchema = relation.MustSchema(
		relation.Column{Name: "k", Type: relation.Int},
		relation.Column{Name: "i", Type: relation.Int},
		relation.Column{Name: "f", Type: relation.Float},
		relation.Column{Name: "t", Type: relation.Time},
		relation.Column{Name: "s", Type: relation.String},
	)
	bindBig   = int64(1)<<53 + 1 // its float image is 2^53: rows of 2^53 and 2^53+1 tie
	bindInts  = []pref.Value{nil, int64(0), int64(3), int64(-3), int64(1) << 53, bindBig, -bindBig, int64(1), int64(2)}
	bindFlts  = []pref.Value{nil, math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1), 3.0, 2.5, float64(1 << 53), int64(3), int64(2), 1.0}
	bindTimes = []pref.Value{nil, time.Unix(1_000_000, 0).UTC(), time.Unix(1_000_000, 400_000_000).UTC(), time.Unix(1_000_000, 900_000_000).UTC(), time.Unix(1_000_001, 0).UTC()}
	bindStrs  = []pref.Value{nil, "a", "b", "c"}
	bindLits  = []float64{0, 3, -3, 2.5, 1, float64(1 << 53), 1_000_000, 1_000_001}
	// flatBindLayouts: a flat table (as its one shard), 1–4 range shards
	// on the row key, a paged store of two shards with and without an
	// in-memory tail, and a snapshot of a flat table pinned before its
	// tail was appended.
	flatBindLayouts = []string{"flat", "shards-1", "shards-2", "shards-3", "shards-4", "paged", "paged-tail", "snapshot"}
)

// bindBytes hands out the bytes of a fuzz input, then zeros.
type bindBytes []byte

func (b *bindBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

func bindPick[T any](b *bindBytes, from []T) T { return from[b.next()%len(from)] }

// decodeBindRow draws row k: one byte per column.
func decodeBindRow(b *bindBytes, k int) relation.Row {
	return relation.Row{int64(k), bindPick(b, bindInts), bindPick(b, bindFlts), bindPick(b, bindTimes), bindPick(b, bindStrs)}
}

// decodeBindLeaf draws one leaf of the flat fragment.
func decodeBindLeaf(b *bindBytes) pref.Preference {
	switch b.next() % 7 {
	case 0:
		return pref.AROUND(bindPick(b, []string{"i", "f", "t"}), bindPick(b, bindLits))
	case 1:
		lo := bindPick(b, bindLits)
		p, err := pref.BETWEEN(bindPick(b, []string{"i", "f"}), lo, lo+float64(b.next()%4))
		if err != nil {
			panic(err)
		}
		return p
	case 2:
		return pref.LOWEST(bindPick(b, []string{"i", "f", "t"}))
	case 3:
		return pref.HIGHEST(bindPick(b, []string{"i", "f", "t"}))
	case 4:
		if b.next()%2 == 0 {
			return pref.POS("s", "a", "c")
		}
		return pref.POS("i", int64(3), int64(1))
	case 5:
		if b.next()%2 == 0 {
			return pref.NEG("s", "b")
		}
		return pref.NEG("f", 2.5)
	}
	// A scoring function of the domain value: equal values (an int and its
	// float twin, two ints sharing an image) score alike.
	return pref.SCORE(bindPick(b, []string{"s", "f", "i"}), "bucket", func(v pref.Value) float64 {
		if x, ok := v.(string); ok {
			return float64(len(x) % 2)
		}
		if x, ok := pref.Numeric(v); ok {
			return math.Floor(x / 2) // NaN stays NaN, ±Inf stays infinite
		}
		return -1
	})
}

// decodeBindTerm draws a PRIOR TO chain of one to three Pareto groups of
// one to three leaves, binary or n-ary, nested either way.
func decodeBindTerm(b *bindBytes) pref.Preference {
	groups := make([]pref.Preference, 1+b.next()%3)
	for g := range groups {
		leaves := make([]pref.Preference, 1+b.next()%3)
		for l := range leaves {
			leaves[l] = decodeBindLeaf(b)
		}
		switch {
		case len(leaves) == 1:
			groups[g] = leaves[0]
		case b.next()%2 == 0:
			groups[g] = pref.ParetoProduct(leaves...)
		default:
			groups[g] = pref.ParetoAll(leaves...)
		}
	}
	if len(groups) == 3 && b.next()%2 == 0 {
		return pref.Prioritized(groups[0], pref.Prioritized(groups[1], groups[2]))
	}
	return pref.PrioritizedAll(groups...)
}

// newFlatBindLayout stores rows in the named layout; a paged tail is
// appended after the base rows reach the segment files, a snapshot's after
// it was pinned. prepare, when non-nil, sees the table before any tail
// goes in.
func newFlatBindLayout(t testing.TB, layout string, rows, tail []relation.Row, prepare func(*relation.Sharded)) *relation.Sharded {
	if prepare == nil {
		prepare = func(*relation.Sharded) {}
	}
	flat := relation.New("t", bindSchema)
	for _, row := range rows {
		flat.MustInsert(row)
	}
	switch layout {
	case "flat":
		s := relation.OneShard(flat)
		prepare(s)
		return s
	case "snapshot":
		prepare(relation.OneShard(flat))
		snap := flat.Snapshot()
		for _, row := range tail {
			flat.MustInsert(row)
		}
		return relation.OneShard(snap)
	case "paged", "paged-tail":
		st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{PageBytes: 1 << 10, PoolBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		mem, err := relation.ShardRelation(flat, 2, relation.ByHash("k"))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := st.ImportTable(mem)
		if err != nil {
			t.Fatal(err)
		}
		s := tbl.(*relation.Sharded)
		prepare(s)
		if layout == "paged-tail" {
			for _, row := range tail {
				if err := s.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	k := int(layout[len(layout)-1] - '0')
	s, err := relation.ShardRelation(flat, k, relation.ByRange("k", relation.RangeBounds(flat, "k", k)...))
	if err != nil {
		t.Fatal(err)
	}
	prepare(s)
	return s
}

// keepOrders makes every shard of s keep a value order of each INT or
// FLOAT column of p: two requests each.
func keepOrders(p pref.Preference) func(*relation.Sharded) {
	return func(s *relation.Sharded) {
		for _, sh := range s.Shards() {
			for _, attr := range p.Attrs() {
				sh.ValueOrder(attr)
				sh.ValueOrder(attr)
			}
		}
	}
}

// flatBindStats counts what a battery exercised.
type flatBindStats struct{ checks, folds, coded, nan, walks int }

// checkFlatBind decodes one case from data and runs the differential.
func checkFlatBind(t testing.TB, data []byte, st *flatBindStats) {
	b := bindBytes(data)
	layout := bindPick(&b, flatBindLayouts)
	rows := make([]relation.Row, 4+b.next()%45)
	for k := range rows {
		rows[k] = decodeBindRow(&b, k)
	}
	tail := make([]relation.Row, b.next()%6)
	for k := range tail {
		tail[k] = decodeBindRow(&b, len(rows)+k)
	}
	p := decodeBindTerm(&b)
	alg := bindPick(&b, []Algorithm{Auto, BNL, SFS, Naive})
	cut, seed := 1+b.next()%5, b.next()
	// The whole-shard route: orders kept, the candidates the walk reaches.
	walk := b.next()%2 == 1
	var prepare func(*relation.Sharded)
	if walk {
		prepare = keepOrders(p)
	}
	s := newFlatBindLayout(t, layout, rows, tail, prepare)
	what := fmt.Sprintf("%s alg %s term %s walk %v", layout, alg, p, walk)

	sets := make(ShardSets, s.NumShards())
	// scope holds the rows the answer is over: the candidates, or every
	// row of a walked shard.
	scope := make(ShardSets, s.NumShards())
	locals := make(ShardSets, s.NumShards())
	carried := make([]*pref.FlatShape, s.NumShards())
	defer func() {
		for _, rec := range carried {
			if rec != nil {
				releaseRecords(rec)
			}
		}
	}()
	for i, sh := range s.Shards() {
		sets[i] = []int{}
		for j := 0; j < sh.Len(); j++ {
			if walk || (j*31+seed)%5 < cut {
				sets[i] = append(sets[i], j)
			}
		}
		scope[i] = sets[i]
		if walk {
			if cand, w := walkShard(p, sh, sh.Len(), false); w.Outcome == WalkPruned {
				sets[i] = cand
				st.walks++
			}
		}
		locals[i] = []int{}
		if len(sets[i]) == 0 {
			continue
		}
		g := sh.Gather(sets[i]).Borrow()
		fused := new(pref.Compiled)
		if !pref.BindFlat(fused, p, g) {
			t.Fatalf("%s shard %d: the term does not bind flat", what, i)
		}
		compiled, ok := pref.Compile(p, g)
		if !ok || compiled.Flat() == nil {
			t.Fatalf("%s shard %d: pref.Compile over the gathered rows has no flat shape", what, i)
		}
		sameFlatShape(t, fmt.Sprintf("%s shard %d", what, i), p, fused.Flat(), compiled.Flat(), g.Len(), st)
		g.Release()

		maxima, ok := evalGathered(p, sh, alg, EvalAuto, sets[i], nil, func(ev evaluated) []int {
			carried[i] = ev.records()
			return ev.maxima
		})
		if !ok {
			t.Fatalf("%s shard %d: the gathered evaluation failed to bind", what, i)
		}
		cand := sh.Pick(scope[i])
		if got, want := oidsOf(sh.Row, maxima), oidsOf(cand.Row, BMOIndicesMode(p, cand, BNL, EvalInterpreted)); !sameInts(got, want) {
			t.Fatalf("%s shard %d: local maxima %v, oracle %v", what, i, got, want)
		}
		locals[i] = maxima
		st.checks++
	}
	want := referenceOIDs(p, s, scope)
	for _, avx2 := range []bool{AVX2Available(), false} {
		prev := SetAVX2Enabled(avx2)
		for _, recs := range [][]*pref.FlatShape{carried, nil} {
			got, _ := mergeShardMaxima(p, s, cloneSets(locals), recs)
			if oids := oidsOf(s.Row, got.GlobalIDs(s)); !sameInts(oids, want) {
				SetAVX2Enabled(prev)
				t.Fatalf("%s (avx2 %v, carried %v): merged %v, oracle %v", what, avx2, recs != nil, oids, want)
			}
			st.folds++
		}
		SetAVX2Enabled(prev)
	}
}

// sameFlatShape holds a flat bind's shape to Compile's over the same n
// gathered rows: groups, attributes, scores (NaN matching NaN) and tie
// keys — the same word on an image-keyed dimension, the same classes on a
// coded one — and, for a chain product, the same ±Inf collapse verdict.
func sameFlatShape(t testing.TB, what string, p pref.Preference, fused, compiled *pref.FlatShape, n int, st *flatBindStats) {
	t.Helper()
	if !sameInts(fused.Ends, compiled.Ends) || len(fused.Dims) != len(compiled.Dims) {
		t.Fatalf("%s: fused groups %v over %d dims, compiled %v over %d", what, fused.Ends, len(fused.Dims), compiled.Ends, len(compiled.Dims))
	}
	for d := range fused.Dims {
		fd, cd := &fused.Dims[d], &compiled.Dims[d]
		if fd.Attr != cd.Attr || fd.Coded != cd.Coded {
			t.Fatalf("%s dim %d: fused %s coded=%v, compiled %s coded=%v", what, d, fd.Attr, fd.Coded, cd.Attr, cd.Coded)
		}
		for i := 0; i < n; i++ {
			if x, y := fd.Score[i], cd.Score[i]; x != y && (x == x || y == y) {
				t.Fatalf("%s dim %d slot %d: fused score %v, compiled %v", what, d, i, x, y)
			}
			if x := fd.Score[i]; x != x {
				st.nan++
			}
		}
		if (fd.Tie.Keys != nil) != (cd.Tie.Code != nil || cd.Tie.Val != nil) {
			t.Fatalf("%s dim %d: fused tie consulted %v, compiled tie %+v", what, d, fd.Tie.Keys != nil, cd.Tie)
		}
		if fd.Tie.Keys == nil {
			continue
		}
		if fd.Coded {
			st.coded++
		}
		for i := 0; i < n; i++ {
			if !fd.Coded && fd.Tie.Key(i) != cd.Tie.Key(i) {
				t.Fatalf("%s dim %d slot %d: fused key %#x, compiled %#x", what, d, i, fd.Tie.Key(i), cd.Tie.Key(i))
			}
			for j := 0; j < n; j++ {
				if (fd.Tie.Key(i) == fd.Tie.Key(j)) != (cd.Tie.Key(i) == cd.Tie.Key(j)) {
					t.Fatalf("%s dim %d slots %d, %d: fused keys equal %v, compiled %v", what, d, i, j, fd.Tie.Key(i) == fd.Tie.Key(j), cd.Tie.Key(i) == cd.Tie.Key(j))
				}
			}
		}
	}
	if chainProduct(p, func(pref.Scorer) {}) && len(fused.Dims) > 1 && fused.TiesExact() != compiled.TiesExact() {
		t.Fatalf("%s: fused ±Inf verdict %v, compiled %v", what, fused.TiesExact(), compiled.TiesExact())
	}
}

// flatBindSeed encodes a case the way checkFlatBind decodes it: layout,
// rows and tail rows as (i, f, t, s) value indices, the term's bytes, the
// algorithm, the candidate cut (5: every row) and the route.
func flatBindSeed(layout int, rows, tail [][4]byte, term []byte, alg byte, walk bool) []byte {
	data := []byte{byte(layout), byte(len(rows) - 4)}
	for _, r := range rows {
		data = append(data, r[:]...)
	}
	data = append(data, byte(len(tail)))
	for _, r := range tail {
		data = append(data, r[:]...)
	}
	data = append(data, term...)
	data = append(data, alg, 4, 0)
	if walk {
		data = append(data, 1)
	}
	return data
}

// flatBindSeeds are the named cases: NaN rows in both of two shards under
// a Pareto group (every NaN its own class — two shards' NaN rows must not
// share a key in the fold), and TIME instants within one second in
// different shards (tied scores, unequal codes from unrelated per-shard
// dictionaries); on the walked route a PRIOR TO chain over two shards and
// three leaves on one column over a paged table with a tail; plus random
// draws.
func flatBindSeeds() map[string][]byte {
	// f index 1 is NaN, 6 is 3.0; t index 1 and 2 are 0.4 s apart.
	nanRows := [][4]byte{{1, 1, 1, 1}, {2, 6, 4, 2}, {3, 6, 1, 3}, {1, 1, 2, 1}, {2, 1, 3, 2}, {3, 6, 4, 3}, {1, 1, 1, 1}, {2, 6, 2, 2}}
	// i: NULL, 0, 3, −3, 2^53, 2^53+1, −(2^53+1), 1, 2; f: NULL, NaN, +Inf,
	// −Inf, 0, −0, 3, 2.5, 2^53, int 3, int 2, 1.
	walkRows := [][4]byte{{1, 6, 1, 1}, {2, 7, 1, 2}, {3, 1, 1, 3}, {4, 2, 1, 1}, {5, 3, 1, 2}, {6, 4, 1, 3},
		{7, 5, 1, 1}, {8, 9, 1, 2}, {0, 10, 1, 3}, {2, 0, 1, 1}, {2, 11, 1, 2}, {8, 8, 1, 3},
		{7, 7, 1, 1}, {1, 4, 1, 2}, {3, 6, 1, 3}, {4, 11, 1, 1}, {2, 7, 1, 2}, {5, 9, 1, 3}}
	timeRows := [][4]byte{{1, 6, 1, 1}, {2, 6, 4, 2}, {3, 6, 4, 3}, {1, 6, 4, 1}, {2, 6, 2, 2}, {3, 6, 4, 3}, {1, 6, 4, 1}, {2, 6, 4, 2}}
	seeds := map[string][]byte{
		// shards-2; one group: LOWEST(f) ⊗ HIGHEST(i), under SFS.
		"NaN rows in two shards": flatBindSeed(2, nanRows, nil, []byte{0, 1, 2, 1, 3, 0, 1}, 2, false),
		// shards-2; LOWEST(t) ⊗ LOWEST(f) PRIOR TO HIGHEST(i), under BNL.
		"TIME tie across shards": flatBindSeed(2, timeRows, nil, []byte{1, 1, 2, 2, 2, 1, 1, 0, 3, 0}, 1, false),
		// shards-2, walked; AROUND(f, 2.5) ⊗ HIGHEST(i) PRIOR TO LOWEST(f),
		// under Auto.
		"walked PRIOR TO chain": flatBindSeed(2, walkRows, nil, []byte{1, 1, 0, 1, 3, 3, 0, 1, 0, 2, 1}, 0, true),
		// paged-tail, walked; LOWEST(i) ⊗ HIGHEST(i) ⊗ AROUND(i, 3), under
		// SFS: three walks over one order, two rows appended after the
		// orders were built.
		"walked leaves on one column": flatBindSeed(6, walkRows, walkRows[:2], []byte{0, 2, 2, 0, 3, 0, 0, 0, 1, 0}, 2, true),
		"empty":                       {},
	}
	rng := rand.New(rand.NewSource(29))
	for k := 0; k < 6; k++ {
		data := make([]byte, 300)
		rng.Read(data)
		seeds[fmt.Sprintf("draw %d", k)] = data
	}
	return seeds
}

// TestFlatBindDifferential runs the battery: the named seeds, then random
// cases decoded from seeded bytes, on every layout.
func TestFlatBindDifferential(t *testing.T) {
	var st flatBindStats
	for name, data := range flatBindSeeds() {
		t.Run(name, func(t *testing.T) {
			walks := st.walks
			checkFlatBind(t, data, &st)
			if strings.HasPrefix(name, "walked") && st.walks == walks {
				t.Fatal("no shard walked")
			}
		})
	}
	rng := rand.New(rand.NewSource(33))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 320)
		rng.Read(data)
		checkFlatBind(t, data, &st)
	}
	t.Logf("%d shard binds, %d folds, %d coded tie dims, %d NaN scores, %d walked shards", st.checks, st.folds, st.coded, st.nan, st.walks)
	if st.coded == 0 || st.nan == 0 || st.folds == 0 || st.walks == 0 {
		t.Fatalf("the battery missed an edge: %+v", st)
	}
}

// FuzzFlatBind is the battery's fuzz target: `go test -run xxx -fuzz
// FuzzFlatBind ./internal/engine` explores beyond the seed corpus.
func FuzzFlatBind(f *testing.F) {
	for _, data := range flatBindSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFlatBind(t, data, &flatBindStats{})
	})
}
