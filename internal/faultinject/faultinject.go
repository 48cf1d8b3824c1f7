// Package faultinject installs per-shard faults on sharded tables for
// the failure-mode test suites: a registered fault fires at the entry
// of every ctx-aware shard worker touching that (table, shard), so
// tests can make a shard slow, hang it until cancellation, kill it with
// a panic, or fail it with an error — without touching the evaluation
// code under test. The registry is test-only by convention: production
// paths pay a single atomic load while it is empty, and nothing outside
// _test files should install hooks.
package faultinject

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
)

// Mode selects what an installed fault does when a shard worker enters.
type Mode int

// Fault modes.
const (
	// Delay sleeps for Latency (waking early if the worker's context
	// dies first, returning its error) — the "slow shard".
	Delay Mode = iota
	// Hang blocks until the worker's context is cancelled and returns
	// its error — the "dead but reachable" shard that only a deadline
	// can unstick.
	Hang
	// Panic panics with a recognizable value — the "crashed shard"; the
	// fan-out's recovery must contain it as a per-shard error.
	Panic
	// Error returns Err immediately — the cleanly failing shard.
	Error
)

// String renders the mode name.
func (m Mode) String() string {
	switch m {
	case Delay:
		return "slow"
	case Hang:
		return "hang"
	case Panic:
		return "panic"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Fault is one installed per-shard fault.
type Fault struct {
	// Mode selects the failure behaviour.
	Mode Mode
	// Latency is the Delay mode's sleep.
	Latency time.Duration
	// Err is the Error mode's return value; a default is synthesized
	// when nil.
	Err error
}

// key addresses one shard of one sharded table.
type key struct {
	table *relation.Sharded
	shard int
}

var (
	mu        sync.Mutex
	installed map[key]Fault
	// active mirrors len(installed) so Invoke costs one atomic load on
	// the (normal) no-faults path instead of a mutex acquisition per
	// shard worker.
	active atomic.Int64
)

// Install registers a fault on one shard of the table, replacing any
// fault already installed there. Callers must Remove (or RemoveAll)
// when done — typically in a test cleanup — so faults never leak across
// tests.
func Install(s *relation.Sharded, shard int, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if installed == nil {
		installed = make(map[key]Fault)
	}
	k := key{s, shard}
	if _, dup := installed[k]; !dup {
		active.Add(1)
	}
	installed[k] = f
}

// Remove uninstalls the fault on one shard of the table, reporting
// whether one was installed.
func Remove(s *relation.Sharded, shard int) bool {
	mu.Lock()
	defer mu.Unlock()
	k := key{s, shard}
	if _, ok := installed[k]; !ok {
		return false
	}
	delete(installed, k)
	active.Add(-1)
	return true
}

// RemoveAll uninstalls every fault of the table; test cleanups use it.
func RemoveAll(s *relation.Sharded) {
	mu.Lock()
	defer mu.Unlock()
	for k := range installed {
		if k.table == s {
			delete(installed, k)
			active.Add(-1)
		}
	}
}

// Invoke fires the fault installed on (table, shard), if any: ctx-aware
// shard workers call it on entry. With no faults installed anywhere it
// is one atomic load.
func Invoke(ctx context.Context, s *relation.Sharded, shard int) error {
	if active.Load() == 0 {
		return nil
	}
	mu.Lock()
	f, ok := installed[key{s, shard}]
	mu.Unlock()
	if !ok {
		return nil
	}
	switch f.Mode {
	case Delay:
		t := time.NewTimer(f.Latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case Hang:
		<-ctx.Done()
		return ctx.Err()
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic on shard %d of %s", shard, s.Name()))
	case Error:
		if f.Err != nil {
			return f.Err
		}
		return fmt.Errorf("faultinject: injected error on shard %d of %s", shard, s.Name())
	}
	return nil
}
