package psql

import (
	"strings"
	"testing"

	"repro/internal/filter"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT * FROM car WHERE price <= 40000 AND color = 'red''s'")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKeyword, TokStar, TokKeyword, TokIdent, TokKeyword, TokIdent, TokOp, TokNumber, TokKeyword, TokIdent, TokOp, TokString, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%s) kind = %d, want %d", i, toks[i], toks[i].Kind, k)
		}
	}
	if toks[11].Text != "red's" {
		t.Errorf("escaped quote: %q", toks[11].Text)
	}
}

func TestLexOperatorsAndNumbers(t *testing.T) {
	toks, err := Lex("a <> 1 b != 2.5 c >= -3 d < .5")
	if err != nil {
		t.Fatal(err)
	}
	var ops, nums []string
	for _, tok := range toks {
		switch tok.Kind {
		case TokOp:
			ops = append(ops, tok.Text)
		case TokNumber:
			nums = append(nums, tok.Text)
		}
	}
	if strings.Join(ops, " ") != "<> <> >= <" {
		t.Errorf("ops = %v", ops)
	}
	if strings.Join(nums, " ") != "1 2.5 -3 .5" {
		t.Errorf("nums = %v", nums)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", "a ! b", "price @ 3", "x - y"} {
		if _, err := Lex(bad); err == nil {
			t.Errorf("Lex(%q) must fail", bad)
		}
	}
}

func TestParsePaperQuery1(t *testing.T) {
	// The paper's first Preference SQL example (§6.1), adapted to this
	// grammar's ELSE form.
	q, err := Parse(`SELECT * FROM car WHERE make = 'Opel'
		PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND
		            price AROUND 40000 AND HIGHEST(power))
		CASCADE color = 'red' CASCADE LOWEST(mileage)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.From != "car" {
		t.Errorf("From = %q", q.From)
	}
	if q.Where == nil {
		t.Fatal("WHERE missing")
	}
	if q.Preferring == nil {
		t.Fatal("PREFERRING missing")
	}
	if len(q.Cascades) != 2 {
		t.Fatalf("cascades = %d, want 2", len(q.Cascades))
	}
	p, err := q.Preferring.Build()
	if err != nil {
		t.Fatal(err)
	}
	attrs := p.Attrs()
	if len(attrs) != 3 {
		t.Errorf("preferring attrs = %v", attrs)
	}
	if !strings.Contains(p.String(), "⊗") {
		t.Errorf("AND must build Pareto: %s", p)
	}
	if !strings.Contains(p.String(), "POS/NEG") {
		t.Errorf("ELSE <> must build POS/NEG: %s", p)
	}
}

func TestParsePaperQuery2ButOnly(t *testing.T) {
	q, err := Parse(`SELECT * FROM trips
		PREFERRING start_date AROUND 327 AND duration AROUND 14
		BUT ONLY DISTANCE(start_date) <= 2 AND DISTANCE(duration) <= 2`)
	if err != nil {
		t.Fatal(err)
	}
	if q.ButOnly == nil {
		t.Fatal("BUT ONLY missing")
	}
	if !strings.Contains(q.ButOnly.String(), "DISTANCE(start_date) <= 2") {
		t.Errorf("but-only rendering: %s", q.ButOnly)
	}
}

func TestParsePriorToBuildsPrioritized(t *testing.T) {
	q, err := Parse(`SELECT * FROM car PREFERRING color IN ('black', 'white') PRIOR TO price AROUND 10000`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Preferring.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "&") {
		t.Errorf("PRIOR TO must build prioritized accumulation: %s", p)
	}
}

func TestParseBasePreferenceForms(t *testing.T) {
	cases := []struct {
		frag string
		want string // substring of the built preference term
	}{
		{"color = 'red'", "POS(color, {red})"},
		{"color <> 'gray'", "NEG(color, {gray})"},
		{"color IN ('a', 'b')", "POS(color, {a, b})"},
		{"color NOT IN ('a', 'b')", "NEG(color, {a, b})"},
		{"color = 'a' ELSE color = 'b'", "POS/POS(color, {a}; {b})"},
		{"color IN ('a') ELSE color IN ('b', 'c')", "POS/POS(color, {a}; {b, c})"},
		{"color = 'a' ELSE color <> 'z'", "POS/NEG(color, {a}; {z})"},
		{"color IN ('a') ELSE color NOT IN ('y', 'z')", "POS/NEG(color, {a}; {y, z})"},
		{"price AROUND 100", "AROUND(price, 100)"},
		{"price BETWEEN 10 AND 20", "BETWEEN(price, [10, 20])"},
		{"LOWEST(price)", "LOWEST(price)"},
		{"HIGHEST(power)", "HIGHEST(power)"},
		{"EXPLICIT(color, ('b', 'a'), ('c', 'b'))", "EXPLICIT(color"},
	}
	for _, c := range cases {
		q, err := Parse("SELECT * FROM t PREFERRING " + c.frag)
		if err != nil {
			t.Errorf("parse %q: %v", c.frag, err)
			continue
		}
		p, err := q.Preferring.Build()
		if err != nil {
			t.Errorf("build %q: %v", c.frag, err)
			continue
		}
		if !strings.Contains(p.String(), c.want) {
			t.Errorf("%q built %s, want contains %q", c.frag, p, c.want)
		}
	}
}

func TestParseRank(t *testing.T) {
	q, err := Parse(`SELECT * FROM car PREFERRING RANK(price AROUND 10000, HIGHEST(power)) TOP 5`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Preferring.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p.String(), "rank(") {
		t.Errorf("RANK must build rank(F): %s", p)
	}
	if q.Top != 5 {
		t.Errorf("Top = %d", q.Top)
	}
}

func TestParseSkylineClause(t *testing.T) {
	q, err := Parse(`SELECT * FROM car WHERE price > 0 SKYLINE OF price MIN, power MAX, age`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Skyline == nil || len(q.Skyline.Dims) != 3 {
		t.Fatalf("skyline dims: %+v", q.Skyline)
	}
	if q.Skyline.Dims[1].Attr != "power" || q.Skyline.Dims[1].Dir.String() != "MAX" {
		t.Errorf("dim 1 = %+v", q.Skyline.Dims[1])
	}
	if q.Skyline.Dims[2].Dir.String() != "MIN" {
		t.Error("default direction is MIN")
	}
}

func TestParseGroupingByAndOrderBy(t *testing.T) {
	q, err := Parse(`SELECT make, price FROM car PREFERRING LOWEST(price) GROUPING BY make, year ORDER BY price DESC, make LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupingBy) != 2 || q.GroupingBy[0] != "make" {
		t.Errorf("grouping = %v", q.GroupingBy)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Errorf("order = %+v", q.OrderBy)
	}
	if q.Top != 10 {
		t.Errorf("limit = %d", q.Top)
	}
	if len(q.Select) != 2 {
		t.Errorf("select = %v", q.Select)
	}
}

func TestParseWhereForms(t *testing.T) {
	q, err := Parse(`SELECT * FROM t WHERE a = 1 AND (b <> 'x' OR NOT c >= 2.5) AND d IN (1, 2) AND e NOT IN (3) AND f LIKE 'ab%' AND g IS NULL AND h IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Where.String()
	for _, want := range []string{"a = 1", "b <> 'x'", "NOT c >= 2.5", "d IN (1, 2)", "e NOT IN (3)", "f LIKE 'ab%'", "g IS NULL", "h IS NOT NULL"} {
		if !strings.Contains(s, want) {
			t.Errorf("WHERE rendering misses %q: %s", want, s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * car",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t PREFERRING",
		"SELECT * FROM t PREFERRING price NEAR 5",
		"SELECT * FROM t PREFERRING color = 'a' ELSE make = 'b'", // ELSE must stay on one attribute
		"SELECT * FROM t PREFERRING price BETWEEN 10",
		"SELECT * FROM t BUT ONLY SIZE(x) < 3",
		"SELECT * FROM t PREFERRING LOWEST(price) TOP 0",
		"SELECT * FROM t; garbage",
		"SELECT * FROM t PREFERRING PRIOR TO LOWEST(a)",
		"SELECT * FROM t SKYLINE OF",
		"SELECT * FROM t SKYLINE OF ,",
		"SELECT * FROM t SKYLINE OF price MIN,",
		"SELECT * FROM t SKYLINE OF price WRONG",
		"SELECT * FROM t SKYLINE OF price MIN MAX",
	}
	for _, b := range bad {
		if _, err := Parse(b); err == nil {
			t.Errorf("Parse(%q) must fail", b)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `SELECT DISTINCT make, price FROM car WHERE price > 1000 PREFERRING color <> 'gray' PRIOR TO LOWEST(price) CASCADE HIGHEST(power) GROUPING BY make BUT ONLY LEVEL(color) <= 1 ORDER BY price TOP 3`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered := q.String()
	// The rendering must itself parse to the same rendering (fixpoint).
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("rendered query %q does not parse: %v", rendered, err)
	}
	if q2.String() != rendered {
		t.Errorf("rendering not a fixpoint:\n%s\n%s", rendered, q2.String())
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT * FROM t;"); err != nil {
		t.Errorf("trailing semicolon must be accepted: %v", err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"%b%", "abc", true},
		{"", "", true},
		{"%", "", true},
		{"a%", "b", false},
		{"%a%b%", "xaxbx", true},
	}
	for _, c := range cases {
		if got := filter.LikeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}
