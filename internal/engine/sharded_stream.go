package engine

import (
	"slices"

	"repro/internal/boundcache"
	"repro/internal/pref"
	"repro/internal/relation"
)

// ShardedStream is the progressive BMO evaluator over a sharded table;
// emitted values are stable global row ids (relation.GlobalID). For
// compilable chain products it streams truly progressively: the raw
// compiled score coordinates of the chain dimensions are cross-shard
// comparable (images of ScoreOf, not per-relation ranks), so visiting
// the union of all shards' candidates in descending lexicographic raw
// coordinate order restores the sort-filter-skyline invariant globally —
// a dominator always has a strictly greater key, hence is visited first,
// and every undominated candidate is final on sight.
//
// The union is never sorted as one list. Each shard keeps its own visit
// order — locals by descending raw-lex key, cache-served per (shard,
// version, term) like the rank permutations — and Next runs a k-way heap
// merge over the per-shard heads. The merged sequence is identical to
// sorting the union (per-shard orders break key ties by ascending local,
// the heap breaks cross-shard ties by ascending global id), but the work
// before the first emission is O(shards) heap setup on a warm cache —
// independent of the table size — instead of an O(n log n) sort. Each
// shard's coordinates are read from its own cached compiled form, so
// repeated streams are bind- and sort-free per shard. Other shapes
// degrade to one batch sharded evaluation replayed through Next, exactly
// like the flat Stream's fallback.
type ShardedStream struct {
	table      *relation.Sharded
	candidates int
	flat       *Stream // a one-shard table's stream (see EvalStreamShardedCtx); nil otherwise

	progressive bool
	vecs        [][][]float64 // per shard, per dimension raw score vectors
	dims        int
	orders      [][]int  // per shard full visit order, best raw key first
	member      [][]bool // per shard candidate mask; nil = every row
	heads       []shardHead
	confirmed   [][]float64
	scratch     []float64
	pos         int

	started  bool
	buffered []int // batch fallback, in shard-major order
	batch    func() ([]int, error)
	consumed int

	// Cancellation and partial-result state (see EvalStreamShardedCtx);
	// cc and cancel stay nil under an uncancellable context.
	cc      *canceller
	cancel  func()
	closed  bool
	err     error
	partial *Partial
}

// shardHead is one shard's cursor into its visit order during the k-way
// merge.
type shardHead struct {
	shard int
	at    int
}

// streamOrderCacheCap bounds the number of cached per-shard visit orders.
const streamOrderCacheCap = 64

// streamOrderCache holds the per-shard chain visit orders (locals by
// descending raw-lex coordinate key) the sharded stream merges, cached
// per (shard, version, term) alongside the shard's bound form: once the
// coordinates come from the compile cache, the sort is the dominant
// start-up cost, and a repeated stream over an unchanged table starts in
// O(shards). Keys share the bound-form registry, so EvictSharded's sweep
// releases orders too, and any row mutation strands them via the version.
var streamOrderCache = boundcache.New[[]int](streamOrderCacheCap)

// StreamOrderCacheStats returns the hit/miss counters of the per-shard
// stream-order cache.
func StreamOrderCacheStats() (hits, misses uint64) {
	return streamOrderCache.Stats()
}

// ResetStreamOrderCache empties the stream-order cache and zeroes its
// counters.
func ResetStreamOrderCache() {
	streamOrderCache.Reset()
}

// shardStreamOrder returns the shard's full visit order — every local row
// position, descending raw-lex chain key, key ties by ascending local —
// cache-served for keyed terms over cacheable shards, sorted fresh
// otherwise.
func shardStreamOrder(p pref.Preference, sh *relation.Relation, vecs [][]float64) []int {
	term, keyed := pref.CacheKey(p)
	cacheable := keyed && !sh.Ephemeral()
	var key boundcache.Key
	if cacheable {
		key = boundcache.Key{Src: sh, Version: sh.Version(), Term: "streamorder:" + term}
		if ord, hit := streamOrderCache.Get(key); hit && ord != nil {
			return ord
		}
	}
	ord := make([]int, len(vecs[0]))
	for i := range ord {
		ord[i] = i
	}
	slices.SortFunc(ord, func(a, b int) int {
		for d := range vecs {
			if c := pref.CmpScore(vecs[d][a], vecs[d][b]); c != 0 {
				return -c // descending: best raw key first
			}
		}
		// Equal keys are mutually unranked; order by id for determinism.
		return a - b
	})
	if cacheable {
		streamOrderCache.Put(key, ord)
	}
	return ord
}

// shardChainVecs resolves the raw per-dimension score vectors of every
// shard's cached compiled form, ok=false when the term is not a chain
// product or any shard failed to compile. Dimension order is structural
// (chainDims flattens deterministically), so dimension d lines up across
// shards; the vectors hold raw ScoreOf images — not per-relation rank
// transforms — so coordinates compare across shards.
func shardChainVecs(p pref.Preference, s *relation.Sharded) ([][][]float64, bool) {
	if _, ok := chainDims(p); !ok {
		return nil, false
	}
	vecs := make([][][]float64, s.NumShards())
	// Cross-shard coordinate comparison needs more than per-shard
	// exactness: a ±Inf score tie across two shards must also come from
	// ONE value class globally (shard A's NULLs vs shard B's infinite
	// domain values would tie coordinates the predicate leaves
	// incomparable). Fold every shard's pref.InfCollapse per dimension
	// and require the merged record to stay exact.
	var collapse []pref.InfCollapse
	for i := 0; i < s.NumShards(); i++ {
		c := compileFor(p, s.Shard(i), EvalAuto)
		if c == nil {
			return nil, false
		}
		dims, ok := chainDims(c.Pref())
		if !ok {
			return nil, false
		}
		if collapse == nil {
			collapse = make([]pref.InfCollapse, len(dims))
			for d := range collapse {
				collapse[d] = pref.InfCollapse{Exact: true}
			}
		}
		vecs[i] = make([][]float64, len(dims))
		for d, dim := range dims {
			if vecs[i][d] = c.ScoreVec(dim); vecs[i][d] == nil {
				return nil, false
			}
			collapse[d] = pref.MergeInfCollapse(collapse[d], c.ScoreVecInf(dim))
			if !collapse[d].Exact {
				return nil, false
			}
		}
	}
	return vecs, true
}

// bindChain sets up the progressive k-way merge when the term is a
// compilable chain product on every shard; otherwise the stream stays in
// batch-fallback mode.
func (st *ShardedStream) bindChain(p pref.Preference, sets ShardSets) {
	s := st.table
	vecs, ok := shardChainVecs(p, s)
	if !ok {
		return
	}
	st.progressive = true
	st.vecs = vecs
	st.dims = len(vecs[0])
	st.scratch = make([]float64, st.dims)
	st.orders = make([][]int, s.NumShards())
	for i := range st.orders {
		st.orders[i] = shardStreamOrder(p, s.Shard(i), vecs[i])
	}
	if sets != nil {
		st.member = make([][]bool, s.NumShards())
		for i := range st.member {
			if i >= len(sets) || sets[i] == nil {
				continue // nil element: every row is a candidate
			}
			m := make([]bool, s.Shard(i).Len())
			for _, local := range sets[i] {
				m[local] = true
			}
			st.member[i] = m
		}
	}
	st.heads = make([]shardHead, 0, len(st.orders))
	for i := range st.orders {
		if at := st.skipToMember(i, 0); at < len(st.orders[i]) {
			st.heads = append(st.heads, shardHead{shard: i, at: at})
		}
	}
	for i := len(st.heads)/2 - 1; i >= 0; i-- {
		st.siftDown(i)
	}
}

// StreamShardedKeyed reports whether the sharded stream can confirm the
// term's maxima progressively: the compilable chain products, whose raw
// score coordinates order identically on every shard (bindChain still
// falls back to batch when a shard fails to bind or an infinity collapsed
// two value classes). Query explanation surfaces the distinction.
func StreamShardedKeyed(p pref.Preference) bool {
	_, ok := chainDims(p)
	return ok && pref.Compilable(p)
}

// Progressive reports whether the stream confirms maxima incrementally
// (true) or falls back to one batch sharded evaluation (false).
func (st *ShardedStream) Progressive() bool {
	if st.flat != nil {
		return st.flat.Progressive()
	}
	return st.progressive
}

// Consumed returns the number of candidates examined so far.
func (st *ShardedStream) Consumed() int {
	if st.flat != nil {
		return st.flat.Consumed()
	}
	return st.consumed
}

// headLess orders two shard cursors by the merge relation: larger raw-lex
// key first, key ties by ascending global id — the exact total order the
// previous implementation materialized by sorting the candidate union.
func (st *ShardedStream) headLess(a, b shardHead) bool {
	la, lb := st.orders[a.shard][a.at], st.orders[b.shard][b.at]
	for d := 0; d < st.dims; d++ {
		if c := pref.CmpScore(st.vecs[a.shard][d][la], st.vecs[b.shard][d][lb]); c != 0 {
			return c > 0
		}
	}
	return relation.GlobalID(a.shard, la) < relation.GlobalID(b.shard, lb)
}

// siftDown restores the heap invariant below position i.
func (st *ShardedStream) siftDown(i int) {
	for {
		best := i
		if l := 2*i + 1; l < len(st.heads) && st.headLess(st.heads[l], st.heads[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(st.heads) && st.headLess(st.heads[r], st.heads[best]) {
			best = r
		}
		if best == i {
			return
		}
		st.heads[i], st.heads[best] = st.heads[best], st.heads[i]
		i = best
	}
}

// skipToMember returns the first position ≥ at in the shard's visit
// order holding a candidate, or the order's length when exhausted.
func (st *ShardedStream) skipToMember(shard, at int) int {
	ord := st.orders[shard]
	if st.member == nil || st.member[shard] == nil {
		return min(at, len(ord))
	}
	for at < len(ord) && !st.member[shard][ord[at]] {
		at++
	}
	return at
}

// advanceTop moves the best head past its current candidate, dropping
// the head when its shard is exhausted, and restores the heap.
func (st *ShardedStream) advanceTop() {
	h := &st.heads[0]
	if h.at = st.skipToMember(h.shard, h.at+1); h.at >= len(st.orders[h.shard]) {
		last := len(st.heads) - 1
		st.heads[0] = st.heads[last]
		st.heads = st.heads[:last]
	}
	st.siftDown(0)
}

// Next returns the next confirmed maximum as a global row id, or
// ok=false when the result set is exhausted — or, on a ctx stream, when
// the context died (Err reports the cause) or Close was called.
func (st *ShardedStream) Next() (gid int, ok bool) {
	if st.flat != nil {
		return st.flat.Next()
	}
	if st.closed {
		return 0, false
	}
	if !st.progressive {
		if !st.started {
			st.started = true
			var err error
			if st.buffered, err = st.batch(); err != nil {
				st.fail(err)
				return 0, false
			}
			// The batch pass examined exactly the candidate set, like the
			// flat Stream's fallback.
			st.consumed = st.candidates
		}
		if st.pos >= len(st.buffered) {
			// Exhausted: self-close so a ctx stream's derived context is
			// released even when the consumer never calls Close.
			st.Close()
			return 0, false
		}
		gid = st.buffered[st.pos]
		st.pos++
		return gid, true
	}
	for len(st.heads) > 0 {
		if err := st.cc.tickErr(); err != nil {
			st.fail(err)
			return 0, false
		}
		top := st.heads[0]
		shard, local := top.shard, st.orders[top.shard][top.at]
		st.advanceTop()
		st.consumed++
		for d := 0; d < st.dims; d++ {
			st.scratch[d] = st.vecs[shard][d][local]
		}
		if st.dominated(st.scratch) {
			continue
		}
		// Raw-lex order guarantees no unvisited candidate dominates this
		// one (a dominator's key is strictly greater); it is final.
		st.confirmed = append(st.confirmed, slices.Clone(st.scratch))
		return relation.GlobalID(shard, local), true
	}
	st.Close()
	return 0, false
}

// dominated filters a candidate's raw coordinates against the confirmed
// maxima — the cross-shard instance of the chain filter's dominance
// test, NaN blocking on either side like everywhere else in the chain
// fragment.
func (st *ShardedStream) dominated(coord []float64) bool {
	for _, w := range st.confirmed {
		if dominates(w, coord) {
			return true
		}
	}
	return false
}

// Each drains the stream through yield; returning false stops early. It
// returns the number of rows emitted.
func (st *ShardedStream) Each(yield func(gid int) bool) int {
	emitted := 0
	for {
		gid, ok := st.Next()
		if !ok {
			return emitted
		}
		emitted++
		if !yield(gid) {
			return emitted
		}
	}
}

// Collect drains the remaining stream into a slice in emission order.
func (st *ShardedStream) Collect() []int {
	var out []int
	st.Each(func(gid int) bool { out = append(out, gid); return true })
	return out
}
