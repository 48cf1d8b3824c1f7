package relation

import (
	"runtime"
	"testing"
	"weak"
)

func statsFixture() *Relation {
	r := New("R", MustSchema(
		Column{Name: "id", Type: Int},
		Column{Name: "price", Type: Float},
		Column{Name: "color", Type: String},
	))
	// id ascending; price anti-correlated with id; 2 distinct colors.
	prices := []float64{9, 7, 5, 3, 1}
	for i, p := range prices {
		r.MustInsert(Row{int64(i), p, []string{"red", "blue"}[i%2]})
	}
	return r
}

func TestAnalyzeBasics(t *testing.T) {
	s := Analyze(statsFixture())
	if s.Card != 5 || s.Sampled != 5 {
		t.Fatalf("card=%d sampled=%d", s.Card, s.Sampled)
	}
	id, ok := s.Col("id")
	if !ok || !id.SortedAsc || id.SortedDesc || id.Distinct != 5 {
		t.Errorf("id stats: %+v", id)
	}
	if !id.HasRange || id.Min != 0 || id.Max != 4 {
		t.Errorf("id range: %+v", id)
	}
	price, _ := s.Col("price")
	if !price.SortedDesc || price.SortedAsc {
		t.Errorf("price order: %+v", price)
	}
	color, _ := s.Col("color")
	if color.Distinct != 2 || color.HasRange {
		t.Errorf("color stats: %+v", color)
	}
	if _, ok := s.Col("nope"); ok {
		t.Error("unknown column must not resolve")
	}
}

func TestAnalyzeCorrelationSign(t *testing.T) {
	s := Analyze(statsFixture())
	// id rises while price falls: strongly negative correlation.
	if !s.HasCorr || s.Corr > -0.9 {
		t.Errorf("corr=%v has=%v, want strongly negative", s.Corr, s.HasCorr)
	}

	pos := New("P", MustSchema(
		Column{Name: "a", Type: Float},
		Column{Name: "b", Type: Float},
	))
	for i := 0; i < 10; i++ {
		pos.MustInsert(Row{float64(i), float64(2 * i)})
	}
	if ps := Analyze(pos); !ps.HasCorr || ps.Corr < 0.9 {
		t.Errorf("corr=%v, want strongly positive", ps.Corr)
	}
}

func TestAnalyzeSampleStride(t *testing.T) {
	r := New("R", MustSchema(Column{Name: "v", Type: Int}))
	for i := 0; i < 1000; i++ {
		r.MustInsert(Row{int64(i)})
	}
	s := AnalyzeSample(r, 100)
	if s.Sampled > 100 || s.Sampled < 50 {
		t.Errorf("sampled=%d, want ≈100", s.Sampled)
	}
	v, _ := s.Col("v")
	// Min/max come from the full scan even when distinct is sampled.
	if v.Min != 0 || v.Max != 999 {
		t.Errorf("range [%g,%g] must be full-scan exact", v.Min, v.Max)
	}
	if v.Distinct > 100 {
		t.Errorf("sampled distinct=%d exceeds sample", v.Distinct)
	}
	if !v.SortedAsc {
		t.Error("full-scan sortedness must detect ascending order")
	}
}

func TestAnalyzeEmptyAndSingle(t *testing.T) {
	r := New("R", MustSchema(Column{Name: "v", Type: Int}))
	s := Analyze(r)
	if s.Card != 0 || s.HasCorr {
		t.Errorf("empty stats: %+v", s)
	}
	v, _ := s.Col("v")
	if !v.SortedAsc || !v.SortedDesc {
		t.Error("empty column is trivially sorted")
	}
	r.MustInsert(Row{int64(7)})
	s = Analyze(r)
	if v, _ := s.Col("v"); v.Distinct != 1 || v.Min != 7 || v.Max != 7 {
		t.Errorf("singleton stats: %+v", v)
	}
	if s.String() == "" {
		t.Error("summary must render")
	}
}

// TestStatisticsLiveOnTheGeneration: Stats is memoized on the generation
// it describes. The live relation and its snapshot share one analysis at
// one version; an Insert's successor analyzes afresh; the superseded
// analysis stays reachable while a snapshot pins its generation and is
// collected once the pin is dropped.
func TestStatisticsLiveOnTheGeneration(t *testing.T) {
	r := statsFixture()
	snap := r.Snapshot()
	old := r.Stats()
	if snap.Stats() != old || r.Stats() != old {
		t.Fatal("the live relation and its snapshot at one version must share one analysis")
	}
	if old.Card != r.Len() {
		t.Fatalf("card=%d over %d rows", old.Card, r.Len())
	}
	r.MustInsert(Row{int64(5), 0.5, "red"})
	fresh := r.Stats()
	if fresh == old || fresh.Card != old.Card+1 {
		t.Fatalf("after an Insert: card %d (same analysis: %v), want a new analysis of card %d", fresh.Card, fresh == old, old.Card+1)
	}
	if snap.Stats() != old {
		t.Fatal("the snapshot must keep its generation's analysis")
	}
	superseded := weak.Make(old)
	old = nil
	collect := func() {
		for range 3 {
			runtime.GC()
		}
	}
	collect()
	if superseded.Value() == nil {
		t.Fatal("the superseded analysis was collected while a snapshot pins its generation")
	}
	runtime.KeepAlive(snap)
	snap = nil
	collect()
	if superseded.Value() != nil {
		t.Error("the superseded analysis outlived the last snapshot of its generation")
	}
	runtime.KeepAlive(fresh)
}
