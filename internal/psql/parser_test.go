package psql

import (
	"fmt"
	"runtime"
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

// TestParseNestingBound: every construct that nests — parentheses in each
// clause, NOT, RANK, and the binary operators AND, OR and PRIOR TO, each a
// node above its operands — parses at MaxNesting levels and fails one
// level past it with a parse error, never by exhausting the stack. Each
// statement is a few kilobytes.
func TestParseNestingBound(t *testing.T) {
	chain := func(n int, unit, op string) string {
		return strings.TrimSuffix(strings.Repeat(unit+op, n+1), op)
	}
	for _, c := range []struct {
		name  string
		stmt  func(n int) string
		calls string // what the deepest form must build
	}{
		{"PREFERRING parentheses", func(n int) string {
			return "SELECT * FROM t PREFERRING " + strings.Repeat("(", n) + "LOWEST(a)" + strings.Repeat(")", n)
		}, "LOWEST(a)"},
		{"WHERE parentheses", func(n int) string {
			return "SELECT * FROM t WHERE " + strings.Repeat("(", n) + "a = 1" + strings.Repeat(")", n)
		}, "a = 1"},
		{"BUT ONLY parentheses", func(n int) string {
			return "SELECT * FROM t PREFERRING LOWEST(a) BUT ONLY " + strings.Repeat("(", n) + "LEVEL(a) <= 1" + strings.Repeat(")", n)
		}, "LEVEL"},
		{"NOT", func(n int) string { return "SELECT * FROM t WHERE " + strings.Repeat("NOT ", n) + "a = 1" }, "NOT"},
		{"RANK", func(n int) string {
			return "SELECT * FROM t PREFERRING " + strings.Repeat("RANK(", n) + "LOWEST(a)" + strings.Repeat(")", n)
		}, "RANK("},
		{"WHERE AND", func(n int) string { return "SELECT * FROM t WHERE " + chain(n, "a = 1", " AND ") }, "AND"},
		{"WHERE OR", func(n int) string { return "SELECT * FROM t WHERE " + chain(n, "a = 1", " OR ") }, "OR"},
		{"Pareto AND", func(n int) string { return "SELECT * FROM t PREFERRING " + chain(n, "LOWEST(a)", " AND ") }, "AND"},
		{"PRIOR TO", func(n int) string { return "SELECT * FROM t PREFERRING " + chain(n, "LOWEST(a)", " PRIOR TO ") }, "PRIOR TO"},
		{"BUT ONLY AND", func(n int) string {
			return "SELECT * FROM t PREFERRING LOWEST(a) BUT ONLY " + chain(n, "LEVEL(a) <= 1", " AND ")
		}, "AND"},
		{"PRIOR TO over Pareto groups", func(n int) string {
			return "SELECT * FROM t PREFERRING (" + chain(n-n/2, "LOWEST(a)", " AND ") + ")" + strings.Repeat(" PRIOR TO LOWEST(a)", n/2)
		}, "PRIOR TO"},
	} {
		q, err := Parse(c.stmt(MaxNesting))
		if err != nil {
			t.Fatalf("%s at the bound: %v", c.name, err)
		}
		if !strings.Contains(q.String(), c.calls) {
			t.Fatalf("%s at the bound renders %.80q…", c.name, q.String())
		}
		if _, err := Parse(q.String()); err != nil {
			t.Fatalf("%s at the bound: the rendering does not parse: %v", c.name, err)
		}
		_, err = Parse(c.stmt(MaxNesting + 1))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("nests deeper than %d levels", MaxNesting)) {
			t.Fatalf("%s one level past the bound: %v", c.name, err)
		}
	}
}

// TestParseMemoryBoundedByNesting: the parser pulls its tokens from the
// lexer, so a statement far past the nesting bound costs memory in
// proportion to the bound, not to its length — a token list of 2 MB of
// parentheses alone would take 64 MB — and still fails with the nesting
// error.
func TestParseMemoryBoundedByNesting(t *testing.T) {
	stmt := "SELECT * FROM t WHERE " + strings.Repeat("(", 2<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(stmt)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("nests deeper than %d levels", MaxNesting)) {
		t.Fatalf("2 MB of parentheses: %v, want the nesting error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8*uint64(len(stmt)) {
		t.Fatalf("parsing %d bytes allocated %d bytes, want under 8× the input", len(stmt), got)
	}
}

// parseSeeds are FuzzParse's seed corpus: the statement shapes the served
// benchmark sends — the hot pool's, the three cold_skyline shapes, the
// durable reader's, mixed_rw's selection, RANK and stream classes — the
// paper's queries, and one nesting past MaxNesting.
func parseSeeds() []string {
	n := MaxNesting + 1
	return []string{
		"SELECT oid FROM car PREFERRING price AROUND 14500 AND HIGHEST(horsepower)",
		"SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING d1 AROUND 0.41 AND d2 AROUND 0.63 AND LOWEST(d3)",
		"SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING (d1 AROUND 0.41 AND LOWEST(d2)) PRIOR TO LOWEST(d3)",
		"SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING LOWEST(d3) PRIOR TO (d1 AROUND 0.41 AND LOWEST(d2))",
		"SELECT * FROM car WHERE price <= 9000 PREFERRING mileage AROUND 60000 AND HIGHEST(horsepower)",
		"SELECT oid FROM car WHERE price <= 12000",
		"SELECT oid FROM car PREFERRING RANK(price AROUND 30000, HIGHEST(horsepower)) TOP 10",
		"SELECT oid FROM car PREFERRING HIGHEST(horsepower) TOP 20",
		"SELECT * FROM car WHERE make = 'Opel' PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND price AROUND 40000 AND HIGHEST(power)) PRIOR TO color = 'red' PRIOR TO LOWEST(mileage)",
		"SELECT * FROM trips PREFERRING start_day AROUND 'Jul/3/2002' AND duration AROUND 14 BUT ONLY DISTANCE(start_day) <= 2 AND DISTANCE(duration) <= 2",
		"SELECT DISTINCT make, price FROM car WHERE NOT (price > 1000 OR color IN ('red', 'blue')) AND mileage IS NOT NULL PREFERRING color <> 'gray' CASCADE HIGHEST(power) GROUPING BY make ORDER BY price DESC LIMIT 3",
		"EXPLAIN SELECT oid FROM car SKYLINE OF price MIN, horsepower MAX;",
		"SELECT * FROM t PREFERRING EXPLICIT(color, ('blue', 'red'), ('gray', 'blue')) AND price BETWEEN 1, 2e3",
		"SELECT * FROM t PREFERRING " + strings.Repeat("(", n) + "LOWEST(a)" + strings.Repeat(")", n),
		// Found by fuzzing: an EXPLICIT with no edges rendered as "EXPLICIT(A, )".
		"SELECT*FROM A PREFERRING EXPLICIT(A)",
		// Found by fuzzing: 1e15 rendered as 1e+15, which did not lex.
		"SELECT*FROM A PREFERRING A AROUND 1000000000000000",
	}
}

// FuzzParse: Parse never panics, and every statement it accepts renders
// (Query.String) to text that parses again to the same rendering. `go
// test -run xxx -fuzz FuzzParse ./internal/psql` explores beyond the seed
// corpus.
func FuzzParse(f *testing.F) {
	for _, stmt := range parseSeeds() {
		f.Add(stmt)
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		q, err := Parse(stmt)
		if err != nil {
			return
		}
		rendered := q.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("%q renders to %q, which does not parse: %v", stmt, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("%q renders to %q, which renders to %q", stmt, rendered, again.String())
		}
	})
}
