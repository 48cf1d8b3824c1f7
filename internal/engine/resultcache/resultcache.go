// Package resultcache counts the engine's result cache: the finished BMO
// maxima of whole shards, which live in the memo of the generation they
// describe (relation.Memo, engine/resultserve.go) and retire with it.
// Binding — score vectors, ordinal codes, selection bitmaps — is
// per-statement work; the cache amortizes the *result*: BMO semantics
// make the maxima of every row a pure function of (generation, term), so
// a repeat query over an unchanged generation is a lookup instead of an
// O(n·|maxima|) scan. Only a shard's whole row set is cached: a
// WHERE-scoped candidate set is one-shot in the measured traffic, so such
// a statement evaluates and stores nothing.
//
// Entries survive writes by incremental maintenance, not invalidation:
// Insert carries every entry of the superseded generation's memo into the
// successor's, checking only the newcomer against the cached maxima (see
// engine/resultmaint.go for the algorithm and its soundness argument).
// The superseded generation's entries are never touched by the carry: a
// session pinned to a pre-insert snapshot reads its own generation's memo
// and can never observe a maintained successor.
package resultcache

import (
	"sync/atomic"

	"repro/internal/relation"
)

var hitCount, missCount, carryCount atomic.Uint64

// NoteHit counts one lookup a cached entry answered.
func NoteHit() { hitCount.Add(1) }

// NoteMiss counts one lookup that found no entry.
func NoteMiss() { missCount.Add(1) }

// NoteCarry counts one entry carried across an Insert.
func NoteCarry() { carryCount.Add(1) }

// Stats returns the cumulative hit, miss and carry-forward counts.
func Stats() (hits, misses, carried uint64) {
	return hitCount.Load(), missCount.Load(), carryCount.Load()
}

// Len returns the number of result entries live memos hold (the memos'
// only relation.Carrier entries).
func Len() int { return relation.HeldCarriers() }

// Reset zeroes the hit, miss and carry counters; tests and benchmarks use
// it. Entries live on their generations, so Reset leaves them (and Len)
// alone: a test that needs a cold cache builds a fresh relation.
func Reset() {
	hitCount.Store(0)
	missCount.Store(0)
	carryCount.Store(0)
}
