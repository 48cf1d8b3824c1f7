package psql

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

func TestRunStreamMatchesBatch(t *testing.T) {
	cat := Catalog{"car": workload.Cars(2000, 17)}
	query := "SELECT oid FROM car WHERE transmission = 'manual' PREFERRING LOWEST(price) AND LOWEST(mileage)"
	batch, err := Run(query, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	n, err := RunStream(query, cat, Options{}, func(row relation.Row) bool {
		if len(row) != 1 {
			t.Fatalf("projection not applied: %v", row)
		}
		seen[row[0].(int64)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != batch.Len() || len(seen) != batch.Len() {
		t.Fatalf("stream emitted %d rows, batch %d", n, batch.Len())
	}
	for i := 0; i < batch.Len(); i++ {
		oid, _ := batch.Tuple(i).Get("oid")
		if !seen[oid.(int64)] {
			t.Fatalf("batch row oid=%v missing from stream", oid)
		}
	}
}

func TestRunStreamSkylineAndTop(t *testing.T) {
	cat := Catalog{"car": workload.Cars(3000, 23)}
	n, err := RunStream("SELECT oid FROM car SKYLINE OF price MIN, mileage MIN TOP 4", cat, Options{},
		func(relation.Row) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("TOP 4 must stop the stream after 4 rows, emitted %d", n)
	}
}

func TestRunStreamEarlyStop(t *testing.T) {
	cat := Catalog{"car": workload.Cars(3000, 29)}
	calls := 0
	n, err := RunStream("SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)", cat, Options{}, func(relation.Row) bool {
		calls++
		return calls < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || calls != 2 {
		t.Errorf("early stop: emitted %d, calls %d", n, calls)
	}
}

func TestRunStreamFallbackForNonStreamableQueries(t *testing.T) {
	cat := Catalog{"car": workload.Cars(500, 31)}
	for _, query := range []string{
		"SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY make",
		"SELECT oid FROM car PREFERRING LOWEST(price) CASCADE LOWEST(mileage)",
		"SELECT oid FROM car PREFERRING LOWEST(price) ORDER BY oid",
		"SELECT DISTINCT make FROM car PREFERRING LOWEST(price)",
	} {
		batch, err := Run(query, cat, Options{})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		n, err := RunStream(query, cat, Options{}, func(relation.Row) bool { return true })
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if n != batch.Len() {
			t.Errorf("%s: fallback emitted %d rows, batch %d", query, n, batch.Len())
		}
	}
}

// TestExecStreamIndexChained is the acceptance test of the index-chained
// streaming path: a WHERE + PREFERRING stream over a catalog relation
// binds the preference over the relation's columns and streams the batch
// answer, and a consumer that stops after the first row gets exactly one.
func TestExecStreamIndexChained(t *testing.T) {
	cat := Catalog{"car": workload.Cars(3000, 19)}
	query := "SELECT oid FROM car WHERE price <= 40000 PREFERRING LOWEST(price) AND LOWEST(mileage)"
	var streamed []relation.Row
	if _, err := RunStream(query, cat, Options{}, func(r relation.Row) bool {
		streamed = append(streamed, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	batch, err := Run(query, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != batch.Len() {
		t.Fatalf("stream emitted %d rows, batch %d", len(streamed), batch.Len())
	}
	n, err := RunStream(query, cat, Options{}, func(relation.Row) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early-stopped stream emitted %d rows", n)
	}
}

// TestExecStreamRandomizedAgreement: streamed results must equal batch
// results as sets for WHERE + single-soft-clause queries across random
// selectivities and preference shapes.
func TestExecStreamRandomizedAgreement(t *testing.T) {
	cat := Catalog{"car": workload.Cars(800, 37)}
	shapes := []string{
		"PREFERRING LOWEST(price) AND LOWEST(mileage)",
		"PREFERRING HIGHEST(horsepower) PRIOR TO LOWEST(price)",
		"PREFERRING color = 'red'",
		"SKYLINE OF price MIN, horsepower MAX",
	}
	for _, limit := range []int{15000, 30000, 60000} {
		for _, shape := range shapes {
			query := fmt.Sprintf("SELECT oid FROM car WHERE price <= %d %s", limit, shape)
			batch, err := Run(query, cat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[int64]bool)
			for i := 0; i < batch.Len(); i++ {
				v, _ := batch.Tuple(i).Get("oid")
				want[v.(int64)] = true
			}
			got := make(map[int64]bool)
			n, err := RunStream(query, cat, Options{}, func(row relation.Row) bool {
				got[row[0].(int64)] = true
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) || len(got) != len(want) {
				t.Fatalf("%s: stream emitted %d rows, batch %d", query, n, batch.Len())
			}
			for oid := range want {
				if !got[oid] {
					t.Fatalf("%s: oid %d missing from stream", query, oid)
				}
			}
		}
	}
}

func TestRunStreamErrors(t *testing.T) {
	cat := Catalog{"car": workload.Cars(10, 1)}
	if _, err := RunStream("SELECT * FROM missing PREFERRING LOWEST(price)", cat, Options{}, nil); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := RunStream("SELECT nope FROM car PREFERRING LOWEST(price)", cat, Options{}, nil); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := RunStream("SELECT FROM", cat, Options{}, nil); err == nil {
		t.Error("parse error must surface")
	}
}
