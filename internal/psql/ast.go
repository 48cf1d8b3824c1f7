package psql

import (
	"fmt"
	"strings"

	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/quality"
	"repro/internal/skyline"
)

// Query is a parsed Preference SQL statement.
type Query struct {
	// ExplainPlan requests the evaluation plan instead of the result
	// (EXPLAIN SELECT …).
	ExplainPlan bool
	// Select lists the projected columns; empty means SELECT *.
	Select []string
	// Distinct requests duplicate elimination after projection.
	Distinct bool
	// From names the source relation.
	From string
	// Where is the hard selection, or nil.
	Where BoolExpr
	// Preferring is the soft constraint evaluated under BMO semantics, or
	// nil. Cascades holds additional preferences applied as a cascade of
	// preference queries (Proposition 11 territory).
	Preferring PrefExpr
	Cascades   []PrefExpr
	// GroupingBy lists the grouping attributes for σ[P groupby A].
	GroupingBy []string
	// ButOnly is the quality post-filter, or nil.
	ButOnly ButExpr
	// Skyline is a SKYLINE OF clause, an alternative soft constraint.
	Skyline *skyline.Clause
	// OrderBy lists output ordering directives.
	OrderBy []OrderItem
	// Top limits output to the k best rows (0 = no limit). With a RANK
	// preference this is the k-best ranked query model of §6.2.
	Top int
}

// OrderItem is one ORDER BY directive.
type OrderItem struct {
	Attr string
	Desc bool
}

// String reassembles the query in canonical Preference SQL syntax.
func (q *Query) String() string {
	var b strings.Builder
	if q.ExplainPlan {
		b.WriteString("EXPLAIN ")
	}
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(q.Select, ", "))
	}
	b.WriteString(" FROM " + q.From)
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.String())
	}
	if q.Preferring != nil {
		b.WriteString(" PREFERRING " + q.Preferring.String())
	}
	for _, c := range q.Cascades {
		b.WriteString(" CASCADE " + c.String())
	}
	if len(q.GroupingBy) > 0 {
		b.WriteString(" GROUPING BY " + strings.Join(q.GroupingBy, ", "))
	}
	if q.ButOnly != nil {
		b.WriteString(" BUT ONLY " + q.ButOnly.String())
	}
	if q.Skyline != nil {
		b.WriteString(" " + q.Skyline.String())
	}
	if len(q.OrderBy) > 0 {
		parts := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			parts[i] = o.Attr
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if q.Top > 0 {
		fmt.Fprintf(&b, " TOP %d", q.Top)
	}
	return b.String()
}

// BoolExpr is a hard-constraint condition tree (WHERE clause). The node
// types live in internal/filter, which also compiles a tree against a
// relation's cached column arrays; the aliases below keep the psql AST
// vocabulary while execution binds through the compiled selection path.
type BoolExpr = filter.Pred

// AndExpr conjoins conditions.
type AndExpr = filter.And

// OrExpr disjoins conditions.
type OrExpr = filter.Or

// NotExpr negates a condition.
type NotExpr = filter.Not

// CmpExpr compares an attribute with a literal: attr op value.
type CmpExpr = filter.Cmp

// InExpr tests set membership: attr [NOT] IN (v1, …).
type InExpr = filter.In

// LikeExpr matches a string attribute against a SQL LIKE pattern with %
// and _ wildcards.
type LikeExpr = filter.Like

// IsNullExpr tests attr IS [NOT] NULL.
type IsNullExpr = filter.IsNull

// litString renders a literal in SQL syntax; one definition for the whole
// SQL layer, shared with the WHERE condition nodes.
func litString(v pref.Value) string { return filter.LitString(v) }

// PrefExpr is a soft-constraint preference tree; Build lowers it to the
// preference model.
type PrefExpr interface {
	Build() (pref.Preference, error)
	String() string
}

// ParetoExpr is the AND of the PREFERRING clause: Pareto accumulation of
// equally important preferences.
type ParetoExpr struct{ Parts []PrefExpr }

// Build implements PrefExpr.
func (e *ParetoExpr) Build() (pref.Preference, error) {
	ps := make([]pref.Preference, len(e.Parts))
	for i, part := range e.Parts {
		p, err := part.Build()
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return pref.ParetoAll(ps...), nil
}

func (e *ParetoExpr) String() string {
	parts := make([]string, len(e.Parts))
	for i, p := range e.Parts {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// PriorExpr is PRIOR TO: prioritized accumulation, left more important.
type PriorExpr struct{ L, R PrefExpr }

// Build implements PrefExpr.
func (e *PriorExpr) Build() (pref.Preference, error) {
	l, err := e.L.Build()
	if err != nil {
		return nil, err
	}
	r, err := e.R.Build()
	if err != nil {
		return nil, err
	}
	return pref.Prioritized(l, r), nil
}

func (e *PriorExpr) String() string {
	return "(" + e.L.String() + " PRIOR TO " + e.R.String() + ")"
}

// BasePrefExpr is one base preference in the PREFERRING clause.
type BasePrefExpr struct {
	// Kind is one of "pos", "neg", "pospos", "posneg", "around", "between",
	// "lowest", "highest", "explicit".
	Kind string
	Attr string
	// Pos, Neg hold the value sets of POS-style constructors.
	Pos []pref.Value
	Neg []pref.Value
	// Z, Low, Up hold numeric parameters of AROUND/BETWEEN.
	Z, Low, Up float64
	// Edges holds EXPLICIT better-than pairs.
	Edges []pref.Edge
}

// Build implements PrefExpr.
func (e *BasePrefExpr) Build() (pref.Preference, error) {
	switch e.Kind {
	case "pos":
		return pref.POS(e.Attr, e.Pos...), nil
	case "neg":
		return pref.NEG(e.Attr, e.Neg...), nil
	case "pospos":
		return pref.POSPOS(e.Attr, e.Pos, e.Neg) // Neg carries POS2 here
	case "posneg":
		return pref.POSNEG(e.Attr, e.Pos, e.Neg)
	case "around":
		return pref.AROUND(e.Attr, e.Z), nil
	case "between":
		return pref.BETWEEN(e.Attr, e.Low, e.Up)
	case "lowest":
		return pref.LOWEST(e.Attr), nil
	case "highest":
		return pref.HIGHEST(e.Attr), nil
	case "explicit":
		return pref.EXPLICIT(e.Attr, e.Edges)
	}
	return nil, fmt.Errorf("psql: unknown base preference kind %q", e.Kind)
}

func (e *BasePrefExpr) String() string {
	switch e.Kind {
	case "pos":
		return fmt.Sprintf("%s IN (%s)", e.Attr, litList(e.Pos))
	case "neg":
		return fmt.Sprintf("%s NOT IN (%s)", e.Attr, litList(e.Neg))
	case "pospos":
		return fmt.Sprintf("%s IN (%s) ELSE %s IN (%s)", e.Attr, litList(e.Pos), e.Attr, litList(e.Neg))
	case "posneg":
		return fmt.Sprintf("%s IN (%s) ELSE %s NOT IN (%s)", e.Attr, litList(e.Pos), e.Attr, litList(e.Neg))
	case "around":
		return fmt.Sprintf("%s AROUND %s", e.Attr, pref.FormatValue(e.Z))
	case "between":
		return fmt.Sprintf("%s BETWEEN %s AND %s", e.Attr, pref.FormatValue(e.Low), pref.FormatValue(e.Up))
	case "lowest":
		return fmt.Sprintf("LOWEST(%s)", e.Attr)
	case "highest":
		return fmt.Sprintf("HIGHEST(%s)", e.Attr)
	case "explicit":
		var b strings.Builder
		b.WriteString("EXPLICIT(" + e.Attr)
		for _, ed := range e.Edges {
			fmt.Fprintf(&b, ", (%s, %s)", litString(ed.Worse), litString(ed.Better))
		}
		return b.String() + ")"
	}
	return "?" + e.Kind
}

// RankExpr is RANK(attr1 AROUND z, HIGHEST(attr2), …): numerical
// accumulation with the unit-weight sum as combining function, the only
// RANK form the language has.
type RankExpr struct {
	Parts []PrefExpr
}

// Build implements PrefExpr. Every part must lower to a Scorer
// (constructor substitutability admits AROUND, BETWEEN, LOWEST, HIGHEST).
// The term is built through pref.RankWeighted, so its weights stay
// introspectable and a RANK over keyed parts has a faithful cache key.
func (e *RankExpr) Build() (pref.Preference, error) {
	scorers := make([]pref.Scorer, len(e.Parts))
	weights := make([]float64, len(e.Parts))
	for i, part := range e.Parts {
		p, err := part.Build()
		if err != nil {
			return nil, err
		}
		s, ok := p.(pref.Scorer)
		if !ok {
			return nil, fmt.Errorf("psql: RANK requires SCORE-substitutable preferences, got %s", p)
		}
		scorers[i], weights[i] = s, 1
	}
	return pref.RankWeighted(weights, scorers...)
}

func (e *RankExpr) String() string {
	parts := make([]string, len(e.Parts))
	for i, p := range e.Parts {
		parts[i] = p.String()
	}
	return "RANK(" + strings.Join(parts, ", ") + ")"
}

func litList(vs []pref.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = litString(v)
	}
	return strings.Join(parts, ", ")
}

// ButExpr is a BUT ONLY condition tree over LEVEL/DISTANCE measures.
// It is sealed: ButAnd, ButOr and ButCond — the nodes the parser builds —
// are its only implementations, so every tree compiles to a threshold
// scan (compile, in exec.go). Eval is the per-tuple reference semantics.
type ButExpr interface {
	Eval(byAttr map[string]pref.Preference, t pref.Tuple) bool
	String() string
	compile(byAttr map[string]pref.Preference, r pref.Source) func(int) bool
}

// ButAnd conjoins BUT ONLY conditions.
type ButAnd struct{ L, R ButExpr }

// Eval implements ButExpr.
func (e *ButAnd) Eval(byAttr map[string]pref.Preference, t pref.Tuple) bool {
	return e.L.Eval(byAttr, t) && e.R.Eval(byAttr, t)
}
func (e *ButAnd) String() string { return "(" + e.L.String() + " AND " + e.R.String() + ")" }

// ButOr disjoins BUT ONLY conditions.
type ButOr struct{ L, R ButExpr }

// Eval implements ButExpr.
func (e *ButOr) Eval(byAttr map[string]pref.Preference, t pref.Tuple) bool {
	return e.L.Eval(byAttr, t) || e.R.Eval(byAttr, t)
}
func (e *ButOr) String() string { return "(" + e.L.String() + " OR " + e.R.String() + ")" }

// ButCond is one LEVEL/DISTANCE comparison.
type ButCond struct{ C quality.Condition }

// Eval implements ButExpr.
func (e *ButCond) Eval(byAttr map[string]pref.Preference, t pref.Tuple) bool {
	return e.C.Eval(byAttr, t)
}
func (e *ButCond) String() string { return e.C.String() }
