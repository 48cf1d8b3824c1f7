package psql

import (
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// TestDropRacingPinnedSnapshot is the deferred-reclamation regression
// test at the catalog level: Catalog.Drop / Catalog.Replace sweep the
// dropped table's cache entries (including its snapshot view's),
// but a query already pinned to a snapshot must keep evaluating its
// epoch untouched — the column arrays retire with the last reader, not
// with the eviction.
func TestDropRacingPinnedSnapshot(t *testing.T) {
	query := "SELECT oid FROM car WHERE price <= 45000 PREFERRING LOWEST(price) AND HIGHEST(horsepower)"
	base := workload.Cars(400, 7)
	snap := base.Snapshot()

	// The expected answer, computed before any catalog churn.
	want := renderAll(t, query, Catalog{"car": snap})

	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]string, 8)
	for k := range results {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			<-start
			// Each reader queries its own catalog view of the pinned
			// snapshot, concurrently with Drop/Replace on the live one.
			results[k] = renderAll(t, query, Catalog{"car": snap})
		}(k)
	}

	live := Catalog{"car": relation.Table(base)}
	close(start)
	for i := 0; i < 4; i++ {
		// Replace with a fresh table, then drop it: both sweep bound
		// forms; neither may reclaim the pinned epoch's arrays.
		live.Replace("car", workload.Cars(50, int64(i)))
		live.Drop("car")
		live["car"] = base
		live.Drop("car")
	}
	wg.Wait()

	for k, got := range results {
		if got != want {
			t.Fatalf("reader %d diverged after Drop/Replace:\ngot:  %s\nwant: %s", k, got, want)
		}
	}
}

// renderAll executes the query and renders every result row.
func renderAll(t *testing.T, query string, cat Catalog) string {
	t.Helper()
	out, err := Run(query, cat, Options{})
	if err != nil {
		t.Errorf("exec: %v", err)
		return ""
	}
	return out.String()
}
