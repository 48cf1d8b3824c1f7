package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/pref"
	"repro/internal/rank"
	"repro/internal/relation"
)

// Randomized cancellation agreement: a context cancelled at a random
// point during evaluation must produce EITHER a clean context error OR
// the complete, exactly-correct result — never a torn one. The suite
// runs under -race in CI, so it also pins the absence of data races
// between the cancelling goroutine, the fan-out workers and the caller.

// ctxCancelledWithin returns a context a background goroutine cancels
// after a random sub-millisecond delay — sometimes before evaluation
// starts, sometimes mid-scan, sometimes after it finished.
func ctxCancelledWithin(rng *rand.Rand, limit time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	delay := time.Duration(rng.Int63n(int64(limit)))
	go func() {
		time.Sleep(delay)
		cancel()
	}()
	return ctx, cancel
}

// memberSet indexes a result's row positions for subset checks.
func memberSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

func TestCancellationAgreementFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		domain := 2 + rng.Intn(6)
		r := shardedTestRelation(rng, 200+rng.Intn(3000), domain)
		p := shardedRandomTerm(rng, domain)
		want := BMOIndicesOn(p, r, Auto, allIndices(r.Len()))
		ctx, cancel := ctxCancelledWithin(rng, time.Millisecond)
		got, err := oneShardBMO(ctx, p, r, Auto, nil)
		cancel()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
			}
			if got != nil {
				t.Fatalf("trial %d: cancelled evaluation returned a result", trial)
			}
			continue
		}
		if !sameInts(got, want) {
			t.Fatalf("trial %d: torn result under cancellation: got %v want %v", trial, got, want)
		}
	}
}

func TestCancellationAgreementSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		domain := 2 + rng.Intn(6)
		flat := shardedTestRelation(rng, 200+rng.Intn(2000), domain)
		shards := 1 + rng.Intn(6)
		s, err := relation.ShardRelation(flat, shards, shardedTestPartitioner(rng, flat, shards))
		if err != nil {
			t.Fatal(err)
		}
		p := shardedRandomTerm(rng, domain)
		want := oidSetSharded(s, shardedBMO(p, s, Auto, nil))
		ctx, cancel := ctxCancelledWithin(rng, time.Millisecond)
		sets, part, err := BMOShardedOnFilteredCtxKeyed(ctx, p, s, Auto, nil, nil, false, nil, Robust{})
		cancel()
		if err != nil {
			// Strict failure: the context error, possibly wrapped per shard.
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: err = %v, want context.Canceled in chain", trial, err)
			}
			if sets != nil || part != nil {
				t.Fatalf("trial %d: strict cancellation returned a result", trial)
			}
			continue
		}
		if part != nil {
			t.Fatalf("trial %d: strict policy reported a partial", trial)
		}
		if got := oidSetSharded(s, sets); !sameInts(got, want) {
			t.Fatalf("trial %d: torn sharded result under cancellation: got %v want %v", trial, got, want)
		}
	}
}

func TestCancellationAgreementStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		domain := 2 + rng.Intn(6)
		r := shardedTestRelation(rng, 200+rng.Intn(2000), domain)
		p := shardedRandomTerm(rng, domain)
		want := BMOIndicesOn(p, r, Auto, allIndices(r.Len()))
		members := memberSet(want)
		ctx, cancel := ctxCancelledWithin(rng, time.Millisecond)
		st := EvalStreamCtx(ctx, p, r, Auto, nil)
		var got []int
		for {
			row, ok := st.Next()
			if !ok {
				break
			}
			got = append(got, row)
		}
		cancel()
		// Emitted rows are confirmed maxima even when the stream stopped
		// early: every one must belong to the true result.
		for _, row := range got {
			if !members[row] {
				t.Fatalf("trial %d: stream emitted non-maximum row %d", trial, row)
			}
		}
		if st.Err() != nil {
			if !errors.Is(st.Err(), context.Canceled) {
				t.Fatalf("trial %d: stream err = %v, want context.Canceled", trial, st.Err())
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: clean drain emitted %d of %d maxima", trial, len(got), len(want))
		}
	}
}

func TestCancellationAgreementRanked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		domain := 2 + rng.Intn(6)
		r := shardedTestRelation(rng, 200+rng.Intn(2000), domain)
		sc, err := pref.BETWEEN("A1", 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(10)
		want := rank.TopK(sc, r, k)
		ctx, cancel := ctxCancelledWithin(rng, time.Millisecond)
		got, err := rank.TopKOnCtx(ctx, sc, r, k, nil)
		cancel()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestCancelledBeforeStart: every ctx entry point refuses an
// already-dead context up front with its error and no work.
func TestCancelledBeforeStart(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	flat := shardedTestRelation(rng, 100, 4)
	s, err := relation.ShardRelation(flat, 3, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := oneShardBMO(ctx, p, flat, Auto, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("one-shard soft step: %v", err)
	}
	if _, _, err := BMOShardedOnFilteredCtxKeyed(ctx, p, s, Auto, nil, nil, false, nil, Robust{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded soft step: %v", err)
	}
	sc, err := pref.BETWEEN("A1", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rank.TopKOnCtx(ctx, sc, flat, 3, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopKOnCtx: %v", err)
	}
	st := EvalStreamCtx(ctx, p, flat, Auto, nil)
	if _, ok := st.Next(); ok {
		t.Fatal("dead-ctx stream emitted a row")
	}
	if !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("stream err = %v", st.Err())
	}
}

// TestAbandonedGatheredWorkersKeepTheirSlabs: when the query context dies
// the fan-out stops waiting, and a shard worker still inside its gathered
// evaluation runs on until its canceller notices. Its slab — the fused
// scores and tie keys of a flat term included — is its own until then,
// released by the worker as it unwinds, never by the coordinator, and so
// are the records it carries out for the fold: the coordinator releases
// only the responsive shards' records, after the merge. The statements
// that follow immediately, gathered binds themselves, borrow other memory
// and answer exactly (the poison hook, which also scribbles over released
// records, and the race detector see any memory that changed hands
// early), and no fold of theirs binds a part again.
func TestAbandonedGatheredWorkersKeepTheirSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	flat := gatheredTestRelation(rng, 9000)
	s, err := relation.ShardRelation(flat, 3, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	sets := selectOn(s, 240)
	for i, sh := range s.Shards() {
		if !relation.GatherWorthwhile(len(sets[i]), sh.Len()) {
			t.Fatalf("test premise: shard %d must bind gathered (%d of %d candidates)", i, len(sets[i]), sh.Len())
		}
	}
	cancelled, flatTerms := 0, 0
	folds0 := foldBinds.Load()
	for trial := 0; trial < 30; trial++ {
		p := gatheredTerm(rng)
		if pref.FlatShaped(p) {
			flatTerms++
		}
		ResetCompileCache()
		want := referenceOIDs(p, s, sets)
		ctx, cancel := ctxCancelledWithin(rng, time.Millisecond)
		got, part, err := BMOShardedOnFilteredCtxKeyed(ctx, p, s, Auto, cloneSets(sets), nil, false, nil, Robust{})
		// No pause: abandoned workers may still be evaluating.
		again := shardedBMO(p, s, Auto, cloneSets(sets))
		cancel()
		if oids := oidsOf(s.Row, again.GlobalIDs(s)); !sameInts(oids, want) {
			t.Fatalf("trial %d: statement after a cancelled one: got %v want %v", trial, oids, want)
		}
		if err != nil {
			if !errors.Is(err, context.Canceled) || got != nil || part != nil {
				t.Fatalf("trial %d: got %v part %v err %v, want a bare context.Canceled", trial, got, part, err)
			}
			cancelled++
			continue
		}
		if oids := oidsOf(s.Row, got.GlobalIDs(s)); !sameInts(oids, want) {
			t.Fatalf("trial %d: torn result under cancellation: got %v want %v", trial, oids, want)
		}
	}
	if cancelled == 0 {
		t.Log("no trial was cancelled mid-flight on this machine")
	}
	if flatTerms == 0 {
		t.Fatal("test premise: some trial must draw a term of the flat fragment")
	}
	if n := foldBinds.Load() - folds0; n != 0 {
		t.Fatalf("the folds bound %d parts again instead of reading the carried records", n)
	}
	ResetCompileCache()
}
