package engine

import (
	"slices"
	"sync"

	"repro/internal/relation"
)

// parallelGrain is the minimum number of candidates per worker: below it,
// goroutine scheduling costs more than the comparisons it saves.
const parallelGrain = 512

// planWorkers returns the worker count the planner prices a partitioned
// plan at for a candidate set of size n: one per P (see relation.Procs),
// but never so many that a partition falls under parallelGrain.
func planWorkers(n int) int {
	return min(relation.Procs(), n/parallelGrain)
}

// partitionMaxima is the partition/merge evaluation of a plan with two or
// more workers: split the candidate set into `workers` contiguous
// partitions, compute each partition's maxima concurrently with pass, then
// reduce the concatenated local maxima with one more pass. Correctness
// rests on the divide & conquer identity
//
//	max(P over A ∪ B) = max(P over max(P, A) ∪ max(P, B)),
//
// which holds for every strict partial order: a tuple dominated within its
// partition is dominated globally, and the merge removes cross-partition
// domination. pass must be a pure function of its index slice (it runs
// concurrently on disjoint slices); compiled forms satisfy this — a
// pref.Compiled is immutable after Compile, so the workers share it.
//
// Each worker evaluates under its own derived canceller (the tick counter
// is single-goroutine state), and worker panics are captured and re-raised
// on the calling goroutine after the wait: a cancelPanic unwinding a
// cancelled worker must reach runCancellable on the caller's stack, not
// kill the process, and genuine worker bugs keep their historical
// crash-the-caller semantics.
func partitionMaxima(idx []int, workers int, cc *canceller, pass func([]int, *canceller) []int) []int {
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
			locals[w] = pass(part, cc.child())
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
	out := pass(merged, cc)
	slices.Sort(out)
	return out
}
