package engine

import (
	"slices"

	"repro/internal/pref"
	"repro/internal/relation"
)

// Stream is a progressive BMO evaluator in the spirit of [TEO01]: Next()
// yields row positions as soon as they are *confirmed* maxima, so a caller
// can serve first results before the full candidate set has been examined.
//
// When P has a compatible sort key (SFS-keyed shapes, which include every
// chain product), candidates are visited in descending key order; a visited
// candidate can never be dominated by an unvisited one, so each candidate
// that survives the filter against the already-confirmed set is final the
// moment it is seen. Without a key the stream degrades gracefully: the
// first Next() computes the full result in one batch and replays it
// (Consumed then equals the candidate count — Progressive() reports which
// mode is active).
//
// The stream evaluates over the compiled columnar form whenever the
// preference compiles: relation-backed streams bind through the compile
// cache (position-addressed, so any candidate subset shares the relation's
// cached bound form), the visit order sorts precomputed key vectors, and
// the domination filter runs on the comparator sfsCompiled would pick —
// AVX2 score blocks, flat records or the predicate tree — with no
// per-candidate allocation. Non-compilable preferences
// keep the interface path, with the sort keys still materialized once up
// front.
//
// Internally the stream works in slot space: slots 0..n-1 index the
// candidate set, and cand maps them to row positions. A whole-relation
// stream keeps cand nil (identity) so it shares the compiled form's
// cached key vectors by reference instead of gathering copies.
type Stream struct {
	n       int
	cand    []int               // candidate row positions; nil = identity
	less    func(a, b int) bool // slot-level domination predicate
	keys    [][]float64         // per-dimension key columns in slot space; nil without a key
	order   []int               // visit order (slots, best first)
	pos     int
	confirm []int         // confirmed maxima (slots) of the interpreted filter
	filter  *maximaFilter // confirmed maxima (row positions) of a compiled stream, or nil

	progressive bool
	started     bool
	buffered    []int                 // fallback mode: precomputed result (row positions)
	batch       func() ([]int, error) // fallback evaluator over the candidates; nil for tuple streams
	consumed    int

	// Cancellation state (see EvalStreamCtx); cc and cancel stay nil
	// under an uncancellable context.
	cc     *canceller
	cancel func()
	closed bool
	err    error
}

// row maps a slot to its row position.
func (s *Stream) row(slot int) int {
	if s.cand == nil {
		return slot
	}
	return s.cand[slot]
}

// EvalStreamTuples starts progressive evaluation over a plain tuple slice
// (e.g. the node sets of Preference XPath); emitted values are positions in
// the slice.
func EvalStreamTuples(p pref.Preference, tuples []pref.Tuple) *Stream {
	src := tupleSource(tuples)
	s := &Stream{n: len(tuples)}
	if pref.Compilable(p) {
		if c, ok := pref.Compile(p, src); ok {
			s.bindCompiled(c)
			return s
		}
	}
	s.bindInterpreted(p, src)
	return s
}

// bindCompiled wires the slot-space predicate, key vectors and the
// confirm loop's comparator (the maximaFilter sfsCompiled's filter pass
// runs on) from a compiled form. With an identity candidate set the cached
// key vectors are shared by reference; a proper subset gathers them into
// slot space once so the visit-order sort scans contiguous columns.
func (s *Stream) bindCompiled(c *pref.Compiled) {
	if s.cand == nil {
		s.less = c.Less
	} else {
		s.less = func(a, b int) bool { return c.Less(s.cand[a], s.cand[b]) }
	}
	if keys, ok := c.SortKeys(); ok {
		if s.cand == nil {
			s.keys = keys
		} else {
			s.keys = gatherKeys(keys, s.cand)
		}
		s.filter = newMaximaFilter(c)
		dominanceRuns[s.filter.leg].Add(1)
	}
	s.initOrder()
}

// StreamKeyed reports whether progressive streaming is available for the
// preference: a compiled form with sort keys (the CompiledKeyed fragment)
// or an interpreted compatible key. A flat stream degrades to one batch
// computation otherwise; query explanation surfaces the distinction.
func StreamKeyed(p pref.Preference) bool {
	if pref.CompiledKeyed(p) {
		return true
	}
	_, ok := keyColumns(p)
	return ok
}

// tupleSource adapts a tuple slice to the compilation Source interface.
type tupleSource []pref.Tuple

func (s tupleSource) Len() int               { return len(s) }
func (s tupleSource) Tuple(i int) pref.Tuple { return s[i] }

// relationSource adapts a relation to the Source interface without the
// method set of *relation.Relation (the interpreted bind path only needs
// positional tuple views).
type relationSource struct{ r *relation.Relation }

func (s relationSource) Len() int               { return s.r.Len() }
func (s relationSource) Tuple(i int) pref.Tuple { return s.r.Tuple(i) }

// bindInterpreted sets up the interface-path stream over the candidate
// subset: tuple views materialize once, and the sort keys (when the term
// has a compatible key) materialize column-major, dense-ranked — the same
// ±Inf-safe transform sfs uses — instead of re-deriving and allocating a
// key per comparison.
func (s *Stream) bindInterpreted(p pref.Preference, src pref.Source) {
	tuples := make([]pref.Tuple, s.n)
	for k := range tuples {
		tuples[k] = src.Tuple(s.row(k))
	}
	s.less = func(a, b int) bool { return p.Less(tuples[a], tuples[b]) }
	if keys, ok := interpretedKeyVecs(p, tuples); ok {
		s.keys = keys
	}
	s.initOrder()
}

// gatherKeys projects position-addressed key vectors onto the candidate
// subset (slot space), so the visit-order sort scans contiguous columns.
func gatherKeys(keys [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(keys))
	for d, col := range keys {
		g := make([]float64, len(idx))
		for k, i := range idx {
			g[k] = col[i]
		}
		out[d] = g
	}
	return out
}

// initOrder fixes the visit order when a compatible key exists: best
// first, stably by position for determinism.
func (s *Stream) initOrder() {
	if s.keys == nil {
		return
	}
	s.progressive = true
	s.order = make([]int, s.n)
	for i := range s.order {
		s.order[i] = i
	}
	slices.SortStableFunc(s.order, func(a, b int) int { return cmpKeyColumns(s.keys, a, b) })
}

// Progressive reports whether the stream confirms maxima incrementally
// (true) or had to fall back to batch evaluation (false).
func (s *Stream) Progressive() bool { return s.progressive }

// Consumed returns the number of candidates examined so far; on a
// progressive-friendly preference the first maximum arrives with
// Consumed() ≪ candidate count.
func (s *Stream) Consumed() int { return s.consumed }

// Next returns the next confirmed maximum, or ok=false when the result set
// is exhausted — or, on a ctx stream, when the context died (Err reports
// the cause) or Close was called.
func (s *Stream) Next() (row int, ok bool) {
	if s.closed {
		return 0, false
	}
	if !s.progressive {
		if !s.started {
			s.started = true
			s.consumed = s.n
			var err error
			if s.buffered, err = s.runBatch(); err != nil {
				s.fail(err)
				return 0, false
			}
		}
		if s.pos >= len(s.buffered) {
			// Exhausted: self-close so a ctx stream's derived context is
			// released even when the consumer never calls Close.
			s.Close()
			return 0, false
		}
		row = s.buffered[s.pos]
		s.pos++
		return row, true
	}
	for s.pos < len(s.order) {
		if err := s.cc.tickErr(); err != nil {
			s.fail(err)
			return 0, false
		}
		slot := s.order[s.pos]
		s.pos++
		s.consumed++
		if s.slotDominated(slot) {
			continue
		}
		// Key order guarantees no unvisited candidate dominates slot:
		// x <P y implies key(x) <lex key(y), and slot's key is ≥ all
		// remaining keys. slot is final.
		if s.filter != nil {
			s.filter.confirm(s.row(slot))
		} else {
			s.confirm = append(s.confirm, slot)
		}
		return s.row(slot), true
	}
	s.Close()
	return 0, false
}

// slotDominated filters one candidate slot against the confirmed maxima
// through the comparator bound at stream start.
func (s *Stream) slotDominated(slot int) bool {
	if s.filter != nil {
		return s.filter.dominated(s.row(slot))
	}
	for _, c := range s.confirm {
		if s.less(slot, c) {
			return true
		}
	}
	return false
}

// Each drains the stream through yield; returning false stops early. It
// returns the number of rows emitted.
func (s *Stream) Each(yield func(row int) bool) int {
	emitted := 0
	for {
		row, ok := s.Next()
		if !ok {
			return emitted
		}
		emitted++
		if !yield(row) {
			return emitted
		}
	}
}

// Collect drains the remaining stream into a slice in emission order.
func (s *Stream) Collect() []int {
	var out []int
	s.Each(func(row int) bool { out = append(out, row); return true })
	return out
}

// runBatch computes the fallback result as row positions, ready to emit:
// the engine's batch evaluator over the candidate row positions when the
// stream is relation-backed (sharing the compiled twins and their
// caches), a block-nested-loops pass over the bound predicate otherwise
// (tuple streams, where slots and positions coincide).
func (s *Stream) runBatch() ([]int, error) {
	if s.batch != nil {
		return s.batch()
	}
	window := make([]int, 0, 16)
	for i := 0; i < s.n; i++ {
		if err := s.cc.tickErr(); err != nil {
			return nil, err
		}
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if s.less(i, w) {
				dominated = true
				break
			}
			if !s.less(w, i) {
				keep = append(keep, w)
			}
		}
		if dominated {
			continue
		}
		window = append(keep, i)
	}
	slices.Sort(window)
	return window, nil
}
