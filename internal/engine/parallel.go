package engine

import (
	"slices"
	"sync"

	"repro/internal/pref"
	"repro/internal/relation"
)

// parallelGrain is the minimum number of candidates per worker: below it,
// goroutine scheduling costs more than the comparisons it saves.
const parallelGrain = 512

// defaultWorkers returns the worker count the engine uses for a candidate
// set of size n when the caller does not force one: one per P (see
// relation.Procs), but never so many that a partition falls under
// parallelGrain.
func defaultWorkers(n int) int {
	workers := relation.Procs()
	if workers > n/parallelGrain {
		workers = n / parallelGrain
	}
	return workers
}

// partitionMaxima is the shared partition/merge framework behind every
// parallel variant: split the candidate set into `workers` contiguous
// partitions, compute each partition's maxima concurrently with `local`,
// then reduce the concatenated local maxima with `merge`. Correctness rests
// on the divide & conquer identity
//
//	max(P over A ∪ B) = max(P over max(P, A) ∪ max(P, B)),
//
// which holds for every strict partial order: a tuple dominated within its
// partition is dominated globally, and the merge removes cross-partition
// domination. local and merge must be pure functions of their index slice
// (they run concurrently on disjoint slices); compiled forms satisfy this —
// a pref.Compiled is immutable after Compile, so the workers share it.
//
// Each worker evaluates under its own derived canceller (the tick counter
// is single-goroutine state), and worker panics are captured and re-raised
// on the calling goroutine after the wait: a cancelPanic unwinding a
// cancelled worker must reach runCancellable on the caller's stack, not
// kill the process, and genuine worker bugs keep their historical
// crash-the-caller semantics.
func partitionMaxima(idx []int, workers int, cc *canceller, local, merge func([]int, *canceller) []int) []int {
	chunk := (len(idx) + workers - 1) / workers
	locals := make([][]int, workers)
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(idx) {
			hi = len(idx)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, part []int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			locals[w] = local(part, cc.child())
		}(w, idx[lo:hi])
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	var merged []int
	for _, l := range locals {
		merged = append(merged, l...)
	}
	out := merge(merged, cc)
	slices.Sort(out)
	return out
}

// bnlParallel evaluates the BMO query with partitioned block-nested-loops
// using the default worker count; exact for every strict partial order.
func bnlParallel(p pref.Preference, r *relation.Relation, idx []int) []int {
	return bnlParallelWorkers(p, r, compileFor(p, r, EvalAuto), idx, defaultWorkers(len(idx)), nil)
}

// bnlParallelWorkers is bnlParallel with an explicit worker count and an
// optional compiled form (tests and the planner inject them). Fewer than
// two workers runs sequentially.
func bnlParallelWorkers(p pref.Preference, r *relation.Relation, c *pref.Compiled, idx []int, workers int, cc *canceller) []int {
	eval := func(part []int, cc *canceller) []int {
		if c != nil {
			return bnlCompiled(c, part, cc)
		}
		return bnl(p, r, part, cc)
	}
	if workers < 2 {
		return eval(idx, cc)
	}
	return partitionMaxima(idx, workers, cc, eval, eval)
}

// sfsParallel evaluates with partitioned sort-filter-skyline: each worker
// sorts and filters its partition, and the merged local maxima take one
// more SFS pass. Falls back to sequential below two workers; sfs itself
// falls back to BNL when no compatible key exists, so the partition/merge
// identity still applies.
func sfsParallel(p pref.Preference, r *relation.Relation, idx []int) []int {
	return sfsParallelWorkers(p, r, compileFor(p, r, EvalAuto), idx, defaultWorkers(len(idx)), nil)
}

// sfsParallelWorkers is sfsParallel with an explicit worker count and an
// optional compiled form.
func sfsParallelWorkers(p pref.Preference, r *relation.Relation, c *pref.Compiled, idx []int, workers int, cc *canceller) []int {
	eval := func(part []int, cc *canceller) []int {
		if c != nil {
			return sfsCompiled(c, part, cc)
		}
		return sfs(p, r, part, cc)
	}
	if workers < 2 {
		return eval(idx, cc)
	}
	return partitionMaxima(idx, workers, cc, eval, eval)
}

// dncParallel evaluates with partitioned divide & conquer: each worker runs
// [KLP75] on its partition, and the merged local maxima take one more D&C
// pass. dnc falls back to BNL for non-chain-product preferences, keeping
// the partition/merge identity intact.
func dncParallel(p pref.Preference, r *relation.Relation, idx []int) []int {
	return dncParallelWorkers(p, r, compileFor(p, r, EvalAuto), idx, defaultWorkers(len(idx)), nil)
}

// dncParallelWorkers is dncParallel with an explicit worker count and an
// optional compiled form.
func dncParallelWorkers(p pref.Preference, r *relation.Relation, c *pref.Compiled, idx []int, workers int, cc *canceller) []int {
	eval := func(part []int, cc *canceller) []int {
		if c != nil {
			return dncCompiled(c, part, cc)
		}
		return dnc(p, r, part, cc)
	}
	if workers < 2 {
		return eval(idx, cc)
	}
	return partitionMaxima(idx, workers, cc, eval, eval)
}
