package engine

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/boundcache"
	"repro/internal/faultinject"
	"repro/internal/pref"
	"repro/internal/relation"
)

// Shard-aware BMO evaluation. The partition/merge identity behind a
// partitioned plan — max(P over A ∪ B) = max(P over max(P, A) ∪
// max(P, B)) for every strict partial order — holds just as well when the
// partitions are storage shards: every query evaluates shard-local first
// (each shard is a normal *Relation, so the compile caches serve its
// bound forms independently) and the shard-local maxima — antichains, one
// per shard — merge in one fold that tests cross-shard pairs only
// (mergeShardMaxima): on the records the shards' evaluations carried out
// for a term of the flat fragment — two one-way sweeps per part through
// the AVX2 score blocks when the kernel is on, three-way tests on flat
// records otherwise — on the predicate tree bound over the gathered union
// for the rest of the compilable fragment, and on tuple views beyond it.

// ShardSets is a per-shard list of candidate row positions, aligned with
// the sharded table's shard indices: the sharded counterpart of the flat
// paths' []int candidate set. In candidate INPUTS a nil element means
// every row of that shard; result sets returned by the sharded entry
// points are always non-nil per shard (an empty shard result is an empty
// slice), so they can feed GlobalIDs or the next pipeline stage without
// re-expanding.
type ShardSets [][]int

// ensureNonNil replaces nil per-shard lists with empty slices: nil means
// "every row" only on the candidate-input side, never in results.
func ensureNonNil(ss ShardSets) ShardSets {
	for i := range ss {
		if ss[i] == nil {
			ss[i] = []int{}
		}
	}
	return ss
}

// AllShardSets returns the candidate sets covering every row of every
// shard (all-nil, the identity candidate sets).
func AllShardSets(s *relation.Sharded) ShardSets {
	return make(ShardSets, s.NumShards())
}

// Total returns the total candidate count; table must be the sharded
// table the sets index into (for resolving a nil receiver or nil
// elements).
func (ss ShardSets) Total(table *relation.Sharded) int {
	n := 0
	for i := 0; i < table.NumShards(); i++ {
		n += ss.count(table, i)
	}
	return n
}

// count returns shard i's candidate count without resolving a nil
// element (every row) to positions.
func (ss ShardSets) count(table *relation.Sharded, i int) int {
	if ss == nil || ss[i] == nil {
		return table.Shard(i).Len()
	}
	return len(ss[i])
}

// GlobalIDs flattens the per-shard sets into global row ids in
// shard-major order; table resolves nil elements. A lone non-nil set is
// returned as is — on one shard the global ids are the positions
// (GlobalID(0, i) == i) — so callers must not modify the result.
func (ss ShardSets) GlobalIDs(table *relation.Sharded) []int {
	if len(ss) == 1 && ss[0] != nil {
		return ss[0]
	}
	out := make([]int, 0, ss.Total(table))
	for i := range ss {
		set := ss[i]
		if set == nil {
			for j := 0; j < table.Shard(i).Len(); j++ {
				out = append(out, relation.GlobalID(i, j))
			}
			continue
		}
		for _, j := range set {
			out = append(out, relation.GlobalID(i, j))
		}
	}
	return out
}

// Resolve returns shard i's candidate positions under the input
// convention (a nil receiver or nil element means every row of that
// shard); psql's per-shard filter steps share it.
func (ss ShardSets) Resolve(table *relation.Sharded, i int) []int {
	if ss == nil || ss[i] == nil {
		return allIndices(table.Shard(i).Len())
	}
	return ss[i]
}

// ShardFilter is a per-shard acceptance filter over local row positions:
// given a shard number and an ascending list of that shard's BMO maxima,
// it returns the accepted subset (ascending). psql fuses the BUT ONLY
// quality threshold into the sharded BMO pass through it. Implementations
// must be safe for concurrent calls on distinct shards — the fan-out
// evaluates shards in parallel.
type ShardFilter func(shard int, maxima []int) []int

// intersectSorted intersects two ascending position lists.
func intersectSorted(a, b []int) []int {
	var out []int
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// mergeShardMaxima reduces per-shard local maxima to the global maxima:
// the cross-shard half of the partition/merge identity, max(P, ∪ maxᵢ).
// A preference is a strict partial order (Definition 1), so each shard's
// local maxima are an antichain — every pair inside one shard is already
// settled — and the merge is a fold over the parts that tests cross-shard
// pairs only (antichainFold): no sort keys, no sort, never an intra-part
// pair. A term of the flat fragment folds on the records of the union
// (unionRecords): each part's scores and tie keys as its shard's
// evaluation carried them out (carried, aligned with the shards; nil
// entries, or a nil carried, are bound flat from the part's rows), with
// the slots and keys that meant something only inside one shard re-keyed
// over the union — sweeping each side's rows through the other's score
// blocks, or three-way on flat records without the AVX2 kernel. Any other
// compilable term binds once over the gathered union of the local maxima
// (nothing shard-local crosses the merge: scores derive from the rows'
// column values, ties from the values themselves) and asks
// Compiled.Less; a term outside the compilable fragment, or one that
// fails to bind, compares tuple views with Preference.Less. Borrowed
// memory is returned when the fold is over; the carried records stay the
// caller's. Input and output sets are per-shard ascending; pairs is the
// number of cross-shard pairs the fold tested.
func mergeShardMaxima(p pref.Preference, s *relation.Sharded, locals ShardSets, carried []*pref.FlatShape) (out ShardSets, pairs int) {
	nonEmpty, total := 0, 0
	for i := range locals {
		if len(locals[i]) > 0 {
			nonEmpty++
			total += len(locals[i])
		}
	}
	if nonEmpty <= 1 {
		return ensureNonNil(locals), 0
	}
	// Slots number the union shard-major in list order, whichever
	// comparator reads them.
	var f antichainFold
	var fs *pref.FlatShape
	if pref.FlatShaped(p) {
		if fs = unionRecords(p, s, locals, carried); fs != nil {
			defer releaseRecords(fs)
		}
	}
	if fs == nil && pref.Compilable(p) {
		g := s.Gather(locals).Borrow()
		defer g.Release()
		if c, ok := pref.Compile(p, g); ok {
			if fs = c.Flat(); fs == nil {
				f.less = c.Less
			}
		}
	}
	switch {
	case fs == nil:
	case AVX2Enabled():
		exact := chainExact(p, fs)
		f.members, f.part = newBlockFilter(fs, exact), newBlockFilter(fs, exact)
		defer f.members.release()
		defer f.part.release()
	default:
		f.flat = newFlatKernel(fs, total+1)
		defer f.flat.release()
	}
	switch {
	case f.members != nil:
		dominanceRuns[DominanceBlocksAVX2].Add(1)
	case f.flat != nil:
		dominanceRuns[DominanceFlat].Add(1)
	case f.less != nil:
		dominanceRuns[DominanceTree].Add(1)
	default:
		// The term's attribute positions resolve once for the whole fold,
		// not once per Get of every comparison.
		var tuples []pref.Tuple
		views := s.Schema().TupleViews(p.Attrs())
		for i := range locals {
			sh := s.Shard(i)
			for _, local := range locals[i] {
				tuples = append(tuples, views.Of(sh.Row(local)))
			}
		}
		f.less = func(i, j int) bool { return p.Less(tuples[i], tuples[j]) }
	}
	f.rows = make([]int, 0, total)
	lo := 0
	for i := range locals {
		f.add(lo, lo+len(locals[i]))
		lo += len(locals[i])
	}
	// The surviving slots ascend shard-major once sorted: walk the shards
	// alongside, turning each slot into its shard's position in place, and
	// hand every shard its run (capped: no append reaches the next one).
	slices.Sort(f.rows)
	out = make(ShardSets, s.NumShards())
	shard, off, start := 0, 0, 0
	for k, slot := range f.rows {
		for slot >= off+len(locals[shard]) {
			out[shard] = f.rows[start:k:k]
			start, off = k, off+len(locals[shard])
			shard++
		}
		f.rows[k] = locals[shard][slot-off]
	}
	out[shard] = f.rows[start:len(f.rows):len(f.rows)]
	return ensureNonNil(out), f.pairs
}

// unionRecords assembles the records of the union of the local maxima of
// a term in the flat fragment, slots numbered shard-major as the fold reads
// them: a part's carried records where its shard's evaluation left them,
// else a flat bind of the part's rows now (a result-cache hit, a group of
// GroupByShardedOn). A NaN row's key already names its union slot
// (AppendRows); a coded dimension is re-keyed over the union's values —
// the per-shard dictionaries are unrelated — as Gathered.EqColumn keys
// rows across shards. nil when some part's rows do not bind flat.
func unionRecords(p pref.Preference, s *relation.Sharded, locals ShardSets, carried []*pref.FlatShape) *pref.FlatShape {
	u := newRecords()
	for i, local := range locals {
		switch {
		case len(local) == 0:
		case carried != nil && carried[i] != nil:
			u.AppendRows(carried[i], nil)
		default:
			foldBinds.Add(1)
			g := s.Shard(i).Gather(local).Borrow()
			c := bindFlat(p, g)
			if c != nil {
				u.AppendRows(c.Flat(), nil)
				releaseForm(c)
			}
			g.Release()
			if c == nil {
				releaseRecords(u)
				return nil
			}
		}
	}
	var union *relation.Gathered
	for d := range u.Dims {
		if dim := &u.Dims[d]; dim.Coded {
			if union == nil {
				union = s.Gather(locals)
			}
			codes, _ := union.EqColumn(dim.Attr)
			for k, code := range codes {
				dim.Tie.Keys[k] = uint64(code)
			}
		}
	}
	return u
}

// foldBinds counts the parts unionRecords had to bind because no records
// were carried for them: none for a statement whose shards all evaluated.
var foldBinds atomic.Uint64

// antichainFold keeps W, the maxima of the union of the parts added so
// far, and folds one more antichain L into it: every b ∈ L is tested
// three-way against the members W had when L arrived — never against
// another row of L — and
//
//	b beaten          → b is dropped. It evicted nobody on the way: W is
//	                    an antichain, so a member above b and a member
//	                    below b would be comparable (transitivity);
//	a member beaten   → the member is evicted. It beat no row of L either,
//	                    b being above it and L an antichain;
//	equal, unranked   → both stay (two rows of equal projection are two
//	                    maxima — a duplicate in another shard survives);
//
// then W := survivors(W) ∪ survivors(L), Σ|W|·|Lᵢ| tests at most. Order
// inside W is immaterial, so an evicted member's place is taken by the
// last member still standing and the holes close once per part.
//
// On a flat shape with the AVX2 kernel the same W′ comes out of two one-way
// sweeps instead (sweep): survivors(L) are the rows of L no member beats,
// survivors(W) the members no row of survivors(L) beats — a row of L that
// some member beats cannot beat another member, W being an antichain.
//
// Exactly one comparator is set: members and part are the blocked stores
// of the two sweeps, flat holds W as row-major records (member m in slot
// m), less answers the strict order on slots — the compiled predicate
// tree, or Preference.Less over tuple views.
type antichainFold struct {
	members, part *maximaFilter
	flat          *flatKernel
	less          func(i, j int) bool
	rows          []int // rows[m] is the union slot of member m
	pairs         int   // cross-shard pairs tested
}

// compare tests union slot b — staged, on the flat comparator — against
// member m.
func (f *antichainFold) compare(b, m int) order {
	if f.flat != nil {
		return f.flat.compare(m)
	}
	switch w := f.rows[m]; {
	case f.less(b, w):
		return ordLess
	case f.less(w, b):
		return ordGreater
	}
	return ordIncomparable
}

// move puts member from in member to's place.
func (f *antichainFold) move(from, to int) {
	if from == to {
		return
	}
	f.rows[to] = f.rows[from]
	if f.flat != nil {
		f.flat.move(from, to)
	}
}

// sweep is add on the blocked comparator: W is blocked once, the part's
// rows go through those blocks, the survivors are blocked once, and W's
// rows go through theirs — strict dominance only, so equal rows on either
// side stay. Every pair the second sweep tests the first has tested the
// other way round (a surviving row of the part was offered every member),
// so pairs counts the first sweep's lanes: at most |W|·|L|, and at most
// twice that many one-way lane tests in all.
func (f *antichainFold) sweep(lo, hi int) {
	if len(f.rows) == 0 {
		for b := lo; b < hi; b++ {
			f.rows = append(f.rows, b)
		}
		return
	}
	w, l := f.members, f.part
	w.reset()
	for _, m := range f.rows {
		w.confirm(m)
	}
	l.reset()
	for b := lo; b < hi; b++ {
		if !w.dominated(b) {
			l.confirm(b)
		}
	}
	f.pairs = w.lanes
	keep := 0
	for _, m := range f.rows {
		if !l.dominated(m) {
			f.rows[keep] = m
			keep++
		}
	}
	f.rows = append(f.rows[:keep], l.rows...)
}

// add folds in the part of union slots lo..hi-1, an antichain.
func (f *antichainFold) add(lo, hi int) {
	if f.members != nil {
		f.sweep(lo, hi)
		return
	}
	before := len(f.rows) // members [live, before) are holes
	live := before
candidates:
	for b := lo; b < hi; b++ {
		if f.flat != nil {
			f.flat.stage(b)
		}
		for m := 0; m < live; {
			f.pairs++
			switch f.compare(b, m) {
			case ordLess:
				continue candidates
			case ordGreater:
				live--
				f.move(live, m)
			default:
				m++
			}
		}
		f.rows = append(f.rows, b)
		if f.flat != nil {
			f.flat.commit()
		}
	}
	// Close the holes with survivors from the tail.
	holes, survivors := before-live, len(f.rows)-before
	for t := 0; t < min(holes, survivors); t++ {
		f.move(len(f.rows)-1-t, live+t)
	}
	n := live + survivors
	f.rows = f.rows[:n]
	if f.flat != nil {
		f.flat.truncate(n)
	}
}

// ShardMergeMode names the comparator the cross-shard fold of a term
// runs on — the blocked sweeps ("blocks-avx2") or three-way "flat" records
// for the flat fragment, by the AVX2 kernel's switch; the compiled
// predicate "tree"; or "interpreted" tuple views for terms outside the
// compilable fragment. Query explanation reports it per phase. (A
// compilable term whose bind fails at run time — an ordinal layer past its
// coding cap — folds interpreted.)
func ShardMergeMode(p pref.Preference) string {
	if !pref.Compilable(p) {
		return "interpreted"
	}
	return dominanceOf(p, SFS).String()
}

// GroupByShardedOn evaluates σ[P groupby A] over per-shard candidate
// subsets (sets == nil, or a nil element, means every row) and returns the
// qualifying positions per shard in ascending order; the GroupBy facade
// runs it over a flat relation as one shard. Each
// shard partitions its candidate set by its own cached equality codes,
// the per-shard groups unify cross-shard through a shard-merge
// dictionary over canonical value keys (NaN groups stay singletons, per
// the EqualValues NaN policy — a NaN never equals another, so NaN
// groups never unify), and every global group evaluates shard-local
// then merges, like an independent sharded BMO query. The (group, shard)
// jobs run on the same hardened fan-out as every other sharded step —
// cooperative cancellation inside each job, contained worker panics, the
// fault-injection hook at job entry — but always strictly: groups span
// shards through the merge dictionary, so there is no per-shard boundary
// to degrade along, and any job failure fails the step with a
// *relation.ShardError naming the job's shard.
func GroupByShardedOn(ctx context.Context, p pref.Preference, groupAttrs []string, s *relation.Sharded, alg Algorithm, sets ShardSets) (ShardSets, error) {
	type group struct {
		perShard ShardSets
	}
	var groups []*group
	dict := make(map[string]int)
	for i := 0; i < s.NumShards(); i++ {
		sh := s.Shard(i)
		cand := sets.Resolve(s, i)
		if len(cand) == 0 {
			continue
		}
		for _, g := range sh.GroupsOn(groupAttrs, cand) {
			key, unifiable := shardGroupKey(sh.Tuple(g[0]), groupAttrs)
			slot := -1
			if unifiable {
				if at, hit := dict[key]; hit {
					slot = at
				}
			}
			if slot < 0 {
				slot = len(groups)
				groups = append(groups, &group{perShard: make(ShardSets, s.NumShards())})
				if unifiable {
					dict[key] = slot
				}
			}
			groups[slot].perShard[i] = g
		}
	}
	// One fan-out over every non-empty (group, shard) slice — groups run
	// concurrently with each other instead of paying a pool and a barrier
	// per group — then each group merges cross-shard sequentially over
	// its finished locals.
	type job struct{ group, shard int }
	var jobs []job
	locals := make([]ShardSets, len(groups))
	for g := range groups {
		locals[g] = make(ShardSets, s.NumShards())
		for i := range groups[g].perShard {
			if len(groups[g].perShard[i]) > 0 {
				jobs = append(jobs, job{g, i})
			}
		}
	}
	// One whole-shard bound form serves every group of the shard — bound
	// once by whichever of its jobs runs first, even over an ephemeral
	// shard the compile cache skips (and, cached, on every repeat); a
	// per-group gathered bind would re-bind on every execution.
	binds := make([]func() *pref.Compiled, s.NumShards())
	for i := range binds {
		binds[i] = sync.OnceValue(func() *pref.Compiled {
			if alg == Decomposition {
				return nil
			}
			return compileFor(p, s.Shard(i), EvalAuto)
		})
	}
	errs := relation.FanShardsCtx(ctx, len(jobs), 0, func(ictx context.Context, j int) error {
		g, i := jobs[j].group, jobs[j].shard
		if err := faultinject.Invoke(ictx, s, i); err != nil {
			return err
		}
		out, err := runCancellable(ictx, func(cc *canceller) []int {
			return planAndExecute(alg, p, s.Shard(i), binds[i](), groups[g].perShard[i], BindCached, EvalAuto, cc)
		})
		locals[g][i] = out
		return err
	})
	for j, err := range errs {
		if err != nil {
			return nil, &relation.ShardError{Shard: jobs[j].shard, Err: err}
		}
	}
	out := make(ShardSets, s.NumShards())
	for g := range groups {
		merged, _ := mergeShardMaxima(p, s, locals[g], nil)
		for i, win := range merged {
			out[i] = append(out[i], win...)
		}
	}
	for i := range out {
		slices.Sort(out[i])
	}
	return ensureNonNil(out), nil
}

// shardGroupKey renders a group's projection onto the grouping
// attributes as a canonical cross-shard key, matching the EqualValues
// equivalence the per-shard equality codes encode: absent attributes
// share one class, every value keys by its canonical pref.ValueKey
// (numeric cross-type equality holds), and a NaN anywhere makes the
// group non-unifiable (ok=false) — each NaN is its own equality class,
// so its group can never merge with another.
func shardGroupKey(t pref.Tuple, attrs []string) (string, bool) {
	var b strings.Builder
	for _, a := range attrs {
		v, ok := t.Get(a)
		if !ok || v == nil {
			b.WriteByte('0')
			b.WriteByte(';')
			continue
		}
		if f, isNum := pref.Numeric(v); isNum && math.IsNaN(f) {
			return "", false
		}
		boundcache.WriteKeyStr(&b, pref.ValueKey(v))
	}
	return b.String(), true
}

// EvictSharded releases every bound form cached against any shard of the
// table — the sharded counterpart of EvictRelation; psql.Catalog's Drop
// and Replace route sharded tables through it. It returns the number of
// entries released.
func EvictSharded(s *relation.Sharded) int {
	if s == nil {
		return 0
	}
	n := 0
	for _, sh := range s.Shards() {
		n += EvictRelation(sh)
	}
	return n
}
