package psql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

// TestPersistentBeyondRAMAgreement is the beyond-RAM acceptance
// criterion: a persistent table whose on-disk image is over 10x the
// configured buffer-pool budget must answer WHERE + PREFERRING queries
// exactly like its fully in-memory mirror — randomized query agreement —
// while EXPLAIN keeps reporting compiled evaluation, i.e. the paged
// shard serves the compiled hot path from its mmap'd segments rather
// than falling back to interpreted per-row access.
func TestPersistentBeyondRAMAgreement(t *testing.T) {
	const poolBudget = 32 << 10
	st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{
		PoolBytes: poolBudget,
		PageBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	schema := relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "make", Type: relation.String},
		relation.Column{Name: "color", Type: relation.String},
		relation.Column{Name: "price", Type: relation.Int},
		relation.Column{Name: "power", Type: relation.Int},
		relation.Column{Name: "mileage", Type: relation.Int},
	)
	makes := []string{"Opel", "BMW", "VW", "Audi", "Fiat"}
	colors := []string{"red", "blue", "gray", "black"}
	mem := relation.New("car", schema)
	rng := rand.New(rand.NewSource(42))
	const n = 6000
	for i := 0; i < n; i++ {
		mem.MustInsert(relation.Row{
			int64(i),
			makes[rng.Intn(len(makes))],
			colors[rng.Intn(len(colors))],
			int64(20000 + rng.Intn(40000)),
			int64(60 + rng.Intn(200)),
			int64(rng.Intn(150000)),
		})
	}
	paged, err := st.ImportTable(mem)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().SegmentBytes(); got < 10*poolBudget {
		t.Fatalf("table too small for the criterion: %d segment bytes vs %d pool budget", got, poolBudget)
	}

	memCat := Catalog{"car": mem}
	pagedCat := Catalog{"car": paged}
	queries := []string{
		"SELECT oid FROM car WHERE price < %d PREFERRING LOWEST(price) AND LOWEST(mileage)",
		"SELECT oid FROM car WHERE make = 'Opel' AND mileage < %d PREFERRING HIGHEST(power) AND LOWEST(price)",
		"SELECT oid FROM car WHERE power > 100 PREFERRING LOWEST(mileage) CASCADE HIGHEST(power) ORDER BY oid TOP %d",
		"SELECT oid, price FROM car WHERE price >= 25000 AND price <= %d PREFERRING color = 'red' PRIOR TO LOWEST(price)",
	}
	args := func(q string, r *rand.Rand) string {
		switch {
		case strings.Contains(q, "price < %d"):
			return fmt.Sprintf(q, 22000+r.Intn(30000))
		case strings.Contains(q, "mileage < %d"):
			return fmt.Sprintf(q, 20000+r.Intn(100000))
		case strings.Contains(q, "TOP %d"):
			return fmt.Sprintf(q, 1+r.Intn(20))
		default:
			return fmt.Sprintf(q, 30000+r.Intn(25000))
		}
	}
	for trial := 0; trial < 24; trial++ {
		q := args(queries[trial%len(queries)], rng)
		wantRel, err := Run(q, memCat, Options{})
		if err != nil {
			t.Fatalf("%s (in-memory): %v", q, err)
		}
		gotRel, err := Run(q, pagedCat, Options{})
		if err != nil {
			t.Fatalf("%s (paged): %v", q, err)
		}
		want, got := oids(t, wantRel), oids(t, gotRel)
		if !slices.Equal(want, got) {
			t.Fatalf("%s:\npaged     %v\nin-memory %v", q, got, want)
		}
	}

	plan, err := ExplainQuery(
		"SELECT oid FROM car WHERE price < 25000 PREFERRING LOWEST(price) AND LOWEST(mileage)",
		pagedCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "compiled evaluation") {
		t.Fatalf("paged table lost compiled evaluation:\n%s", plan)
	}
	// The trials above requested price's order before, so the cut (about
	// an eighth of the rows) reads it out of the order built from the
	// mmap'd segment image.
	if !strings.Contains(plan, "[ordered (driver price < 25000), ") {
		t.Fatalf("paged table lost the ordered hard selection:\n%s", plan)
	}

	// The pool really was the constraint: the working set rotated
	// through it rather than residing wholesale.
	ps := st.Pool().Stats()
	if ps.Evictions == 0 || ps.ResidentBytes > poolBudget+8192 {
		t.Fatalf("pool did not operate beyond budget: %+v", ps)
	}
}
