package engine

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pref"
	"repro/internal/rank"
	"repro/internal/relation"
)

// faultFixture builds a deterministic flat relation and its sharded twin
// for the failure-mode suite.
func faultFixture(t *testing.T, n, shards int) (*relation.Relation, *relation.Sharded) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	flat := shardedTestRelation(rng, n, 6)
	s, err := relation.ShardRelation(flat, shards, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faultinject.RemoveAll(s) })
	return flat, s
}

// responsiveSets empties the faulted shards' candidate slots, so the
// strict, uncancellable evaluator computes the exact expected partial
// result: the partial merge is the maxima of the union of responsive
// shards' rows.
func responsiveSets(s *relation.Sharded, faulted ...int) ShardSets {
	sets := AllShardSets(s)
	for _, i := range faulted {
		sets[i] = []int{}
	}
	return sets
}

// TestPartialSlowShard: a shard stuck behind a long injected delay must
// not stall the query past its per-shard deadline under PolicyPartial —
// the responsive shards' maxima come back quickly, exact, with the slow
// shard reported missing.
func TestPartialSlowShard(t *testing.T) {
	_, s := faultFixture(t, 400, 4)
	faultinject.Install(s, 2, faultinject.Fault{Mode: faultinject.Delay, Latency: 30 * time.Second})
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	rb := Robust{Policy: PolicyPartial, ShardTimeout: 50 * time.Millisecond}
	start := time.Now()
	sets, part, err := BMOShardedOnFilteredCtxKeyed(context.Background(), p, s, Auto, nil, nil, false, nil, rb)
	if err != nil {
		t.Fatalf("partial policy failed the query: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow shard stalled the fan-out: %v", elapsed)
	}
	if part == nil || len(part.Missing) != 1 || part.Missing[0] != 2 {
		t.Fatalf("missing set = %+v, want shard 2", part)
	}
	if !errors.Is(part.Errs[0], context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want deadline exceeded", part.Errs[0])
	}
	want := oidSetSharded(s, shardedBMO(p, s, Auto, responsiveSets(s, 2)))
	if got := oidSetSharded(s, sets); !sameInts(got, want) {
		t.Fatalf("partial maxima %v, want responsive-shard maxima %v", got, want)
	}
}

// TestStrictPanicShard: a crashed shard worker under the default strict
// policy fails the query with a per-shard error carrying the contained
// panic — the process survives and the error chain exposes both layers.
func TestStrictPanicShard(t *testing.T) {
	_, s := faultFixture(t, 200, 3)
	faultinject.Install(s, 1, faultinject.Fault{Mode: faultinject.Panic})
	p := pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2"))
	sets, part, err := BMOShardedOnFilteredCtxKeyed(context.Background(), p, s, Auto, nil, nil, false, nil, Robust{})
	if err == nil {
		t.Fatal("strict policy returned no error for a panicking shard")
	}
	if sets != nil || part != nil {
		t.Fatalf("strict failure returned a result: sets=%v part=%v", sets, part)
	}
	var se *relation.ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("err = %v, want *ShardError for shard 1", err)
	}
	var pe *relation.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err chain %v does not expose the contained panic", err)
	}
}

// TestPartialPanicShard: the same crash under PolicyPartial degrades —
// responsive shards merge exactly, the crashed shard reports missing.
func TestPartialPanicShard(t *testing.T) {
	_, s := faultFixture(t, 200, 3)
	faultinject.Install(s, 0, faultinject.Fault{Mode: faultinject.Panic})
	p := pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2"))
	sets, part, err := BMOShardedOnFilteredCtxKeyed(context.Background(), p, s, Auto, nil, nil, false, nil, Robust{Policy: PolicyPartial})
	if err != nil {
		t.Fatalf("partial policy failed the query: %v", err)
	}
	if part == nil || len(part.Missing) != 1 || part.Missing[0] != 0 {
		t.Fatalf("missing set = %+v, want shard 0", part)
	}
	var pe *relation.PanicError
	if !errors.As(part.Errs[0], &pe) {
		t.Fatalf("cause = %v, want contained panic", part.Errs[0])
	}
	want := oidSetSharded(s, shardedBMO(p, s, Auto, responsiveSets(s, 0)))
	if got := oidSetSharded(s, sets); !sameInts(got, want) {
		t.Fatalf("partial maxima %v, want responsive-shard maxima %v", got, want)
	}
}

// TestStrictErrorShard: a cleanly failing shard fails a strict query
// with its own error as the cause.
func TestStrictErrorShard(t *testing.T) {
	_, s := faultFixture(t, 150, 3)
	cause := errors.New("disk on fire")
	faultinject.Install(s, 2, faultinject.Fault{Mode: faultinject.Error, Err: cause})
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	_, _, err := BMOShardedOnFilteredCtxKeyed(context.Background(), p, s, Auto, nil, nil, false, nil, Robust{})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want chain containing the injected cause", err)
	}
}

// TestAllShardsMissingIsError: PolicyPartial with every shard failed is
// indistinguishable from a failed query and must report as one, never as
// an empty "result".
func TestAllShardsMissingIsError(t *testing.T) {
	_, s := faultFixture(t, 100, 3)
	for i := 0; i < s.NumShards(); i++ {
		faultinject.Install(s, i, faultinject.Fault{Mode: faultinject.Error})
	}
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	sets, part, err := BMOShardedOnFilteredCtxKeyed(context.Background(), p, s, Auto, nil, nil, false, nil, Robust{Policy: PolicyPartial})
	if err == nil {
		t.Fatalf("all-shards-missing returned a result: sets=%v part=%v", sets, part)
	}
}

// TestHangShardUnblockedByQueryDeadline: a shard hanging until
// cancellation (no per-shard timeout installed) must be unstuck by the
// query deadline; under PolicyPartial the responsive merge still
// completes even though the query context is already dead.
func TestHangShardUnblockedByQueryDeadline(t *testing.T) {
	_, s := faultFixture(t, 300, 4)
	faultinject.Install(s, 3, faultinject.Fault{Mode: faultinject.Hang})
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	sets, part, err := BMOShardedOnFilteredCtxKeyed(ctx, p, s, Auto, nil, nil, false, nil, Robust{Policy: PolicyPartial})
	if err != nil {
		t.Fatalf("partial policy failed the query: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hanging shard stalled the fan-out: %v", elapsed)
	}
	if part == nil || len(part.Missing) == 0 {
		t.Fatal("hanging shard not reported missing")
	}
	want := oidSetSharded(s, shardedBMO(p, s, Auto, responsiveSets(s, part.Missing...)))
	if got := oidSetSharded(s, sets); !sameInts(got, want) {
		t.Fatalf("partial maxima %v, want responsive-shard maxima %v", got, want)
	}
}

// TestGroupedShardedFaults: the grouped step runs on the same fan-out
// as every other sharded step — a panicking (group, shard) job is
// contained into a strict *ShardError naming the job's shard, and a hung
// one is unstuck by the query deadline — but never degrades: groups span
// shards, so there is no partial result to report.
func TestGroupedShardedFaults(t *testing.T) {
	_, s := faultFixture(t, 300, 4)
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	attrs := []string{"C"}

	faultinject.Install(s, 2, faultinject.Fault{Mode: faultinject.Panic})
	sets, err := GroupByShardedOn(context.Background(), p, attrs, s, Auto, nil)
	var se *relation.ShardError
	var pe *relation.PanicError
	if sets != nil || !errors.As(err, &se) || se.Shard != 2 || !errors.As(err, &pe) {
		t.Fatalf("panicking job: sets=%v err=%v, want *ShardError for shard 2 wrapping the contained panic", sets, err)
	}

	faultinject.RemoveAll(s)
	faultinject.Install(s, 1, faultinject.Fault{Mode: faultinject.Hang})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	sets, err = GroupByShardedOn(ctx, p, attrs, s, Auto, nil)
	if sets != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung job: sets=%v err=%v, want deadline exceeded", sets, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung job stalled the grouped step: %v", elapsed)
	}
}

// TestStreamCancellationTerminatesWorkers: cancelling a sharded ctx
// stream mid-flight — with one shard hanging, so the batch fan-out is
// genuinely stuck — must terminate every worker goroutine and surface
// the context error, leaking nothing.
func TestStreamCancellationTerminatesWorkers(t *testing.T) {
	check := faultinject.LeakCheck()
	_, s := faultFixture(t, 300, 4)
	faultinject.Install(s, 1, faultinject.Fault{Mode: faultinject.Hang})
	// EXPLICIT is outside the chain fragment, forcing the batch fallback
	// through the ctx-aware sharded fan-out.
	p, err := pref.EXPLICIT("C", []pref.Edge{{Worse: "blue", Better: "red"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	st := EvalStreamShardedCtx(ctx, p, s, Auto, nil, Robust{})
	if _, ok := st.Next(); ok {
		t.Fatal("hung stream emitted a row")
	}
	if st.Err() == nil || !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", st.Err())
	}
	cancel()
	if err := check(); err != nil {
		t.Fatal(err)
	}
}

// TestAbandonedStreamClose: Close on an undrained ctx stream releases
// its derived context and leaves no goroutines behind, and further Next
// calls report exhaustion.
func TestAbandonedStreamClose(t *testing.T) {
	check := faultinject.LeakCheck()
	flat, s := faultFixture(t, 500, 4)
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))

	fs := EvalStreamCtx(context.Background(), p, flat, Auto, nil)
	if _, ok := fs.Next(); !ok {
		t.Fatal("flat ctx stream empty")
	}
	fs.Close()
	if _, ok := fs.Next(); ok {
		t.Fatal("Next after Close emitted a row")
	}
	fs.Close() // idempotent

	ss := EvalStreamShardedCtx(context.Background(), p, s, Auto, nil, Robust{})
	if _, ok := ss.Next(); !ok {
		t.Fatal("sharded ctx stream empty")
	}
	ss.Close()
	if _, ok := ss.Next(); ok {
		t.Fatal("Next after Close emitted a row")
	}
	ss.Close()

	if err := check(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionControl: the bounded semaphore admits up to its capacity,
// sheds the excess with the typed overload error once the queue wait
// expires, and admits again after a release.
func TestAdmissionControl(t *testing.T) {
	adm := NewAdmission(1, 0)
	release, err := adm.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if got := adm.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	_, err = adm.Acquire(context.Background())
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Limit != 1 {
		t.Fatalf("saturated acquire: err = %v, want *OverloadError{Limit: 1}", err)
	}
	release()
	release2, err := adm.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	release2()

	// A queued acquire rides out a short saturation window.
	adm = NewAdmission(1, time.Second)
	release, err = adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		release()
	}()
	release3, err := adm.Acquire(context.Background())
	if err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	release3()

	// The caller's context pre-empts the queue wait.
	adm = NewAdmission(1, time.Hour)
	release, err = adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err = adm.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx-bounded acquire: err = %v, want deadline exceeded", err)
	}

	// nil limiter admits everything.
	var unlimited *Admission
	rel, err := unlimited.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

// TestRankedShardedCtxFaults: the ranked (k-best) model degrades under
// the same policies — strict failure on a dead shard, exact responsive
// top-k under PolicyPartial.
func TestRankedShardedCtxFaults(t *testing.T) {
	_, s := faultFixture(t, 300, 4)
	sc, err := pref.BETWEEN("A1", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(s, 1, faultinject.Fault{Mode: faultinject.Panic})

	if _, _, err := rankTopKShardedCtx(t, s, sc, Robust{}); err == nil {
		t.Fatal("strict ranked query returned no error for a panicking shard")
	}

	got, part, err := rankTopKShardedCtx(t, s, sc, Robust{Policy: PolicyPartial})
	if err != nil {
		t.Fatalf("partial ranked query failed: %v", err)
	}
	if part == nil || len(part.Missing) != 1 || part.Missing[0] != 1 {
		t.Fatalf("missing set = %+v, want shard 1", part)
	}
	// Expected: legacy sharded top-k with the dead shard's candidates
	// removed.
	want := rankTopKShardedLegacy(s, sc, responsiveSets(s, 1))
	if !sameInts(got, want) {
		t.Fatalf("partial top-k %v, want responsive top-k %v", got, want)
	}
}

// rankTopKShardedCtx runs the ctx-aware ranked query and returns the
// sorted global row ids of the k best.
func rankTopKShardedCtx(t *testing.T, s *relation.Sharded, sc pref.Scorer, rb Robust) ([]int, *Partial, error) {
	t.Helper()
	results, part, err := rank.TopKShardedCtx(context.Background(), sc, s, 5, nil, rb)
	if err != nil {
		return nil, nil, err
	}
	return rankRows(results), part, nil
}

// rankTopKShardedLegacy runs the ranked query over explicit candidate
// sets under an uncancellable context and returns the sorted global row
// ids.
func rankTopKShardedLegacy(s *relation.Sharded, sc pref.Scorer, sets ShardSets) []int {
	results, _, err := rank.TopKShardedCtx(context.Background(), sc, s, 5, sets, Robust{})
	if err != nil {
		panic(err)
	}
	return rankRows(results)
}

// rankRows projects ranked results onto their sorted row ids.
func rankRows(results []rank.Result) []int {
	rows := make([]int, len(results))
	for i, r := range results {
		rows[i] = r.Row
	}
	sort.Ints(rows)
	return rows
}
