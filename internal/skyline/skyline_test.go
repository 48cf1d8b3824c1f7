package skyline

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/relation"
)

func TestParse(t *testing.T) {
	c, err := Parse("price MIN, power MAX, age")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Dims) != 3 {
		t.Fatalf("dims = %d", len(c.Dims))
	}
	if c.Dims[0].Dir != Min || c.Dims[1].Dir != Max || c.Dims[2].Dir != Min {
		t.Errorf("directions = %v", c.Dims)
	}
	if c.String() != "SKYLINE OF price MIN, power MAX, age MIN" {
		t.Errorf("rendering %q", c.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "price WRONG", "price MIN MAX extra", ","} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}

func TestPreferenceConversion(t *testing.T) {
	c, _ := Parse("a MIN, b MAX")
	p, err := c.Preference()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "LOWEST(a)") || !strings.Contains(p.String(), "HIGHEST(b)") {
		t.Errorf("converted preference %s", p)
	}
	if _, err := (Clause{}).Preference(); err == nil {
		t.Error("empty clause must fail")
	}
}

func TestComputeMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	for i := 0; i < 300; i++ {
		rel.MustInsert(relation.Row{rng.Float64(), rng.Float64()})
	}
	c, _ := Parse("a MIN, b MIN")
	got, err := Compute(c, rel, engine.SFS)
	if err != nil {
		t.Fatal(err)
	}
	want := engine.BMO(pref.Pareto(pref.LOWEST("a"), pref.LOWEST("b")), rel, engine.Naive)
	if got.Len() != want.Len() {
		t.Errorf("skyline = %d rows, engine = %d", got.Len(), want.Len())
	}
	if got.Len() == 0 {
		t.Error("skyline of non-empty input must be non-empty")
	}
}

func TestDirectionString(t *testing.T) {
	if Min.String() != "MIN" || Max.String() != "MAX" {
		t.Error("direction rendering")
	}
	if d := (Dim{Attr: "x", Dir: Max}); d.String() != "x MAX" {
		t.Error("dim rendering")
	}
}
