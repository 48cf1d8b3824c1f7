package psql

import (
	"fmt"
	"strconv"

	"repro/internal/pref"
	"repro/internal/skyline"
)

// Parse parses one Preference SQL statement.
func Parse(input string) (*Query, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	p.accept(TokSemi, ";")
	if p.peek().Kind != TokEOF {
		return nil, p.errorf("unexpected %s after end of query", p.peek())
	}
	return q, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) peek2() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("psql: at offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

// accept consumes the next token when it matches kind and text.
func (p *parser) accept(kind TokenKind, text string) bool {
	if p.peek().Kind == kind && (text == "" || p.peek().Text == text) {
		p.pos++
		return true
	}
	return false
}

// acceptKeyword consumes a specific keyword.
func (p *parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

// expect consumes the next token or fails with a message.
func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.peek().Kind == kind && (text == "" || p.peek().Text == text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return Token{}, p.errorf("expected %s, got %s", want, p.peek())
}

// ident consumes an identifier (keywords are not identifiers).
func (p *parser) ident() (string, error) {
	if p.peek().Kind == TokIdent {
		return p.next().Text, nil
	}
	return "", p.errorf("expected identifier, got %s", p.peek())
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if p.acceptKeyword("EXPLAIN") {
		q.ExplainPlan = true
	}
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("DISTINCT") {
		q.Distinct = true
	}
	if !p.accept(TokStar, "*") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, col)
			if !p.accept(TokComma, ",") {
				break
			}
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	q.From = from
	if p.acceptKeyword("WHERE") {
		w, err := p.parseBoolOr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if p.acceptKeyword("PREFERRING") {
		pe, err := p.parsePrefExpr()
		if err != nil {
			return nil, err
		}
		q.Preferring = pe
		for p.acceptKeyword("CASCADE") {
			ce, err := p.parsePrefExpr()
			if err != nil {
				return nil, err
			}
			q.Cascades = append(q.Cascades, ce)
		}
	}
	if p.acceptKeyword("GROUPING") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			q.GroupingBy = append(q.GroupingBy, a)
			if !p.accept(TokComma, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("BUT") {
		if _, err := p.expect(TokKeyword, "ONLY"); err != nil {
			return nil, err
		}
		be, err := p.parseButOr()
		if err != nil {
			return nil, err
		}
		q.ButOnly = be
	}
	if p.acceptKeyword("SKYLINE") {
		if _, err := p.expect(TokKeyword, "OF"); err != nil {
			return nil, err
		}
		sc, err := p.parseSkyline()
		if err != nil {
			return nil, err
		}
		q.Skyline = sc
	}
	if p.acceptKeyword("ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Attr: a}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.accept(TokComma, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("TOP") || p.acceptKeyword("LIMIT") {
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		q.Top = int(n)
		if q.Top <= 0 {
			return nil, p.errorf("TOP/LIMIT requires a positive count")
		}
	}
	return q, nil
}

// number parses a numeric literal.
func (p *parser) number() (float64, error) {
	t, err := p.expect(TokNumber, "")
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(t.Text, 64)
}

// literal parses a string, number or boolean literal.
func (p *parser) literal() (pref.Value, error) {
	switch t := p.peek(); t.Kind {
	case TokString:
		p.next()
		return t.Text, nil
	case TokNumber:
		p.next()
		if n, err := strconv.ParseInt(t.Text, 10, 64); err == nil {
			return n, nil
		}
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return f, nil
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return true, nil
		case "FALSE":
			p.next()
			return false, nil
		case "NULL":
			p.next()
			return nil, nil
		}
	}
	return nil, p.errorf("expected literal, got %s", p.peek())
}

// literalList parses '(' lit (',' lit)* ')'.
func (p *parser) literalList() ([]pref.Value, error) {
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	var out []pref.Value
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if !p.accept(TokComma, ",") {
			break
		}
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

// --- WHERE clause -----------------------------------------------------

func (p *parser) parseBoolOr() (BoolExpr, error) {
	l, err := p.parseBoolAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseBoolAnd()
		if err != nil {
			return nil, err
		}
		l = &OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseBoolAnd() (BoolExpr, error) {
	l, err := p.parseBoolUnary()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		l = &AndExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseBoolUnary() (BoolExpr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	if p.accept(TokLParen, "(") {
		e, err := p.parseBoolOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	attr, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch {
	case p.peek().Kind == TokOp:
		op := p.next().Text
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &CmpExpr{Attr: attr, Op: op, Value: v}, nil
	case p.acceptKeyword("IN"):
		vs, err := p.literalList()
		if err != nil {
			return nil, err
		}
		return &InExpr{Attr: attr, Set: pref.NewValueSet(vs...)}, nil
	case p.acceptKeyword("NOT"):
		if _, err := p.expect(TokKeyword, "IN"); err != nil {
			return nil, err
		}
		vs, err := p.literalList()
		if err != nil {
			return nil, err
		}
		return &InExpr{Attr: attr, Set: pref.NewValueSet(vs...), Negate: true}, nil
	case p.acceptKeyword("LIKE"):
		t, err := p.expect(TokString, "")
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Attr: attr, Pattern: t.Text}, nil
	case p.acceptKeyword("IS"):
		negate := p.acceptKeyword("NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Attr: attr, Negate: negate}, nil
	}
	return nil, p.errorf("expected comparison after %q", attr)
}

// --- PREFERRING clause ------------------------------------------------

// parsePrefExpr parses pref PRIOR TO pref PRIOR TO …, left-associative.
func (p *parser) parsePrefExpr() (PrefExpr, error) {
	l, err := p.parsePrefPareto()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == TokKeyword && p.peek().Text == "PRIOR" {
		p.next()
		if _, err := p.expect(TokKeyword, "TO"); err != nil {
			return nil, err
		}
		r, err := p.parsePrefPareto()
		if err != nil {
			return nil, err
		}
		l = &PriorExpr{l, r}
	}
	return l, nil
}

// parsePrefPareto parses unit AND unit AND … (Pareto accumulation; the
// paper writes Pareto as AND in Preference SQL).
func (p *parser) parsePrefPareto() (PrefExpr, error) {
	first, err := p.parsePrefUnit()
	if err != nil {
		return nil, err
	}
	parts := []PrefExpr{first}
	for p.acceptKeyword("AND") {
		u, err := p.parsePrefUnit()
		if err != nil {
			return nil, err
		}
		parts = append(parts, u)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return &ParetoExpr{parts}, nil
}

// parsePrefUnit parses one base preference, a parenthesized sub-term, or a
// RANK(…) numerical accumulation.
func (p *parser) parsePrefUnit() (PrefExpr, error) {
	switch t := p.peek(); {
	case t.Kind == TokLParen:
		p.next()
		e, err := p.parsePrefExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokKeyword && (t.Text == "LOWEST" || t.Text == "HIGHEST"):
		p.next()
		if _, err := p.expect(TokLParen, "("); err != nil {
			return nil, err
		}
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		kind := "lowest"
		if t.Text == "HIGHEST" {
			kind = "highest"
		}
		return &BasePrefExpr{Kind: kind, Attr: attr}, nil
	case t.Kind == TokKeyword && t.Text == "EXPLICIT":
		return p.parseExplicit()
	case t.Kind == TokKeyword && t.Text == "RANK":
		return p.parseRank()
	case t.Kind == TokIdent:
		return p.parseAttrPref()
	}
	return nil, p.errorf("expected preference, got %s", p.peek())
}

// parseExplicit parses EXPLICIT(attr, (worse, better), …).
func (p *parser) parseExplicit() (PrefExpr, error) {
	p.next() // EXPLICIT
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	attr, err := p.ident()
	if err != nil {
		return nil, err
	}
	var edges []pref.Edge
	for p.accept(TokComma, ",") {
		if _, err := p.expect(TokLParen, "("); err != nil {
			return nil, err
		}
		worse, err := p.literal()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokComma, ","); err != nil {
			return nil, err
		}
		better, err := p.literal()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		edges = append(edges, pref.Edge{Worse: worse, Better: better})
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	return &BasePrefExpr{Kind: "explicit", Attr: attr, Edges: edges}, nil
}

// parseRank parses RANK(part, part, …): one or more comma-separated
// preference units, combined under unit weights. The language has no
// weight syntax.
func (p *parser) parseRank() (PrefExpr, error) {
	p.next() // RANK
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	var parts []PrefExpr
	for {
		u, err := p.parsePrefUnit()
		if err != nil {
			return nil, err
		}
		parts = append(parts, u)
		if !p.accept(TokComma, ",") {
			break
		}
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	return &RankExpr{Parts: parts}, nil
}

// parseAttrPref parses the attribute-led base preference forms:
//
//	attr = lit (ELSE …)?       POS, or POS/POS / POS/NEG via ELSE
//	attr IN (lits) (ELSE …)?   POS, or POS/POS / POS/NEG via ELSE
//	attr <> lit                NEG
//	attr NOT IN (lits)         NEG
//	attr AROUND num            AROUND
//	attr BETWEEN num AND num   BETWEEN
func (p *parser) parseAttrPref() (PrefExpr, error) {
	attr, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch t := p.peek(); {
	case t.Kind == TokOp && t.Text == "=":
		p.next()
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return p.maybeElse(attr, []pref.Value{v})
	case t.Kind == TokOp && t.Text == "<>":
		p.next()
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &BasePrefExpr{Kind: "neg", Attr: attr, Neg: []pref.Value{v}}, nil
	case t.Kind == TokKeyword && t.Text == "IN":
		p.next()
		vs, err := p.literalList()
		if err != nil {
			return nil, err
		}
		return p.maybeElse(attr, vs)
	case t.Kind == TokKeyword && t.Text == "NOT":
		p.next()
		if _, err := p.expect(TokKeyword, "IN"); err != nil {
			return nil, err
		}
		vs, err := p.literalList()
		if err != nil {
			return nil, err
		}
		return &BasePrefExpr{Kind: "neg", Attr: attr, Neg: vs}, nil
	case t.Kind == TokKeyword && t.Text == "AROUND":
		p.next()
		z, err := p.number()
		if err != nil {
			return nil, err
		}
		return &BasePrefExpr{Kind: "around", Attr: attr, Z: z}, nil
	case t.Kind == TokKeyword && t.Text == "BETWEEN":
		p.next()
		low, err := p.number()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		up, err := p.number()
		if err != nil {
			return nil, err
		}
		return &BasePrefExpr{Kind: "between", Attr: attr, Low: low, Up: up}, nil
	}
	return nil, p.errorf("expected preference operator after %q", attr)
}

// maybeElse resolves the ELSE continuation of a positive preference:
// POS ELSE POS → POS/POS, POS ELSE NEG → POS/NEG, no ELSE → POS. The ELSE
// branch must reference the same attribute.
func (p *parser) maybeElse(attr string, posVals []pref.Value) (PrefExpr, error) {
	if !p.acceptKeyword("ELSE") {
		return &BasePrefExpr{Kind: "pos", Attr: attr, Pos: posVals}, nil
	}
	attr2, err := p.ident()
	if err != nil {
		return nil, err
	}
	if attr2 != attr {
		return nil, p.errorf("ELSE must continue preference on %q, got %q", attr, attr2)
	}
	switch t := p.peek(); {
	case t.Kind == TokOp && t.Text == "=":
		p.next()
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &BasePrefExpr{Kind: "pospos", Attr: attr, Pos: posVals, Neg: []pref.Value{v}}, nil
	case t.Kind == TokKeyword && t.Text == "IN":
		p.next()
		vs, err := p.literalList()
		if err != nil {
			return nil, err
		}
		return &BasePrefExpr{Kind: "pospos", Attr: attr, Pos: posVals, Neg: vs}, nil
	case t.Kind == TokOp && t.Text == "<>":
		p.next()
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &BasePrefExpr{Kind: "posneg", Attr: attr, Pos: posVals, Neg: []pref.Value{v}}, nil
	case t.Kind == TokKeyword && t.Text == "NOT":
		p.next()
		if _, err := p.expect(TokKeyword, "IN"); err != nil {
			return nil, err
		}
		vs, err := p.literalList()
		if err != nil {
			return nil, err
		}
		return &BasePrefExpr{Kind: "posneg", Attr: attr, Pos: posVals, Neg: vs}, nil
	}
	return nil, p.errorf("expected =, IN, <> or NOT IN after ELSE")
}

// --- BUT ONLY clause ---------------------------------------------------

func (p *parser) parseButOr() (ButExpr, error) {
	l, err := p.parseButAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseButAnd()
		if err != nil {
			return nil, err
		}
		l = &ButOr{l, r}
	}
	return l, nil
}

func (p *parser) parseButAnd() (ButExpr, error) {
	l, err := p.parseButPrim()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseButPrim()
		if err != nil {
			return nil, err
		}
		l = &ButAnd{l, r}
	}
	return l, nil
}

func (p *parser) parseButPrim() (ButExpr, error) {
	if p.accept(TokLParen, "(") {
		e, err := p.parseButOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	var kind string
	switch {
	case p.acceptKeyword("LEVEL"):
		kind = "level"
	case p.acceptKeyword("DISTANCE"):
		kind = "distance"
	default:
		return nil, p.errorf("expected LEVEL or DISTANCE, got %s", p.peek())
	}
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	attr, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	opTok, err := p.expect(TokOp, "")
	if err != nil {
		return nil, err
	}
	threshold, err := p.number()
	if err != nil {
		return nil, err
	}
	return &ButCond{makeCondition(kind, attr, opTok.Text, threshold)}, nil
}

// --- SKYLINE OF clause ---------------------------------------------------

func (p *parser) parseSkyline() (*skyline.Clause, error) {
	var c skyline.Clause
	for {
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		dim := skyline.Dim{Attr: attr, Dir: skyline.Min}
		if p.acceptKeyword("MAX") {
			dim.Dir = skyline.Max
		} else {
			p.acceptKeyword("MIN")
		}
		c.Dims = append(c.Dims, dim)
		if !p.accept(TokComma, ",") {
			break
		}
	}
	return &c, nil
}
