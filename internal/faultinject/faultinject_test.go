package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/relation"
)

func testSharded(t *testing.T) *relation.Sharded {
	t.Helper()
	flat := relation.New("T", relation.MustSchema(relation.Column{Name: "x", Type: relation.Int}))
	for i := 0; i < 8; i++ {
		flat.MustInsert(relation.Row{i})
	}
	s, err := relation.ShardRelation(flat, 2, relation.ByHash("x"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { RemoveAll(s) })
	return s
}

func TestInstallInvokeRemove(t *testing.T) {
	s := testSharded(t)
	cause := errors.New("x")
	Install(s, 0, Fault{Mode: Error, Err: cause})
	if err := Invoke(context.Background(), s, 0); !errors.Is(err, cause) {
		t.Fatalf("faulted shard: %v", err)
	}
	if err := Invoke(context.Background(), s, 1); err != nil {
		t.Fatalf("healthy shard: %v", err)
	}
	if !Remove(s, 0) {
		t.Fatal("Remove reported nothing installed")
	}
	if Remove(s, 0) {
		t.Fatal("double Remove reported an install")
	}
	if err := Invoke(context.Background(), s, 0); err != nil {
		t.Fatalf("after remove: %v", err)
	}
}

func TestDelayWakesOnCancel(t *testing.T) {
	s := testSharded(t)
	Install(s, 0, Fault{Mode: Delay, Latency: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := Invoke(ctx, s, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay ignored the dying context")
	}
}

func TestPanicMode(t *testing.T) {
	s := testSharded(t)
	Install(s, 1, Fault{Mode: Panic})
	defer func() {
		if recover() == nil {
			t.Fatal("Panic mode did not panic")
		}
	}()
	Invoke(context.Background(), s, 1)
}
