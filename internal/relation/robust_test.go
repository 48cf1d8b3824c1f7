package relation

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestFanShardsCtxAllSucceed(t *testing.T) {
	var ran atomic.Int64
	errs := FanShardsCtx(context.Background(), 8, 0, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if len(errs) != 8 {
		t.Fatalf("got %d slots, want 8", len(errs))
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	if ran.Load() != 8 {
		t.Fatalf("ran %d items, want 8", ran.Load())
	}
}

func TestFanShardsCtxPanicContainment(t *testing.T) {
	errs := FanShardsCtx(context.Background(), 4, 0, func(ctx context.Context, i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	for i, err := range errs {
		if i == 2 {
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Index != 2 || pe.Value != "boom" {
				t.Fatalf("slot 2: err = %v, want *PanicError{Index: 2, Value: boom}", err)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("contained panic lost its stack")
			}
			continue
		}
		if err != nil {
			t.Fatalf("slot %d poisoned by the panic: %v", i, err)
		}
	}
}

func TestFanShardsCtxItemTimeout(t *testing.T) {
	start := time.Now()
	errs := FanShardsCtx(context.Background(), 3, 30*time.Millisecond, func(ctx context.Context, i int) error {
		if i == 1 {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("per-item deadline did not bound the hang: %v", elapsed)
	}
	if !errors.Is(errs[1], context.DeadlineExceeded) {
		t.Fatalf("slot 1: err = %v, want deadline exceeded", errs[1])
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy slots failed: %v %v", errs[0], errs[2])
	}
}

func TestFanShardsCtxDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	errs := FanShardsCtx(ctx, 5, 0, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("slot %d: err = %v, want context.Canceled", i, err)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("dead context still ran %d items", ran.Load())
	}
}

func TestFanShardsCtxAbandonsHungWorker(t *testing.T) {
	if Procs() < 2 {
		// The serial fallback runs items inline and cannot abandon a
		// worker that ignores its context.
		t.Skip("needs the concurrent fan-out path")
	}
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	errs := FanShardsCtx(ctx, 4, 0, func(ictx context.Context, i int) error {
		if i == 0 {
			// Ignores its context: the collector must abandon it rather
			// than wait forever.
			<-release
		}
		return nil
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("collector waited on the hung worker: %v", elapsed)
	}
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("abandoned slot: err = %v, want context.Canceled", errs[0])
	}
	close(release)
}

func TestCollectPartialStrict(t *testing.T) {
	cause := errors.New("x")
	part, err := CollectPartial(PolicyStrict, []error{nil, cause, nil})
	if part != nil {
		t.Fatalf("strict returned a partial: %+v", part)
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want *ShardError{Shard: 1} wrapping the cause", err)
	}
}

func TestCollectPartialPartial(t *testing.T) {
	part, err := CollectPartial(PolicyPartial, []error{nil, errors.New("a"), nil, errors.New("b")})
	if err != nil {
		t.Fatal(err)
	}
	if part == nil || fmt.Sprint(part.Missing) != "[1 3]" {
		t.Fatalf("missing = %+v, want [1 3]", part)
	}
	if len(part.Errs) != 2 {
		t.Fatalf("causes = %v", part.Errs)
	}
	// All healthy: nil, nil.
	part, err = CollectPartial(PolicyPartial, []error{nil, nil})
	if part != nil || err != nil {
		t.Fatalf("healthy fan-out reported %v, %v", part, err)
	}
}

func TestCollectPartialAllMissing(t *testing.T) {
	part, err := CollectPartial(PolicyPartial, []error{errors.New("a"), errors.New("b")})
	if err == nil {
		t.Fatalf("all-missing returned a partial result: %+v", part)
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("err = %v, want *ShardError for the first failed shard", err)
	}
}
