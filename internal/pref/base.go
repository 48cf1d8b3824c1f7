package pref

import (
	"fmt"
	"strings"
)

// Pos is the POS preference of Definition 6a: a desired value should be one
// from a finite set of favorites; failing that, any other value of the
// domain is acceptable (and all non-favorites are mutually unranked).
type Pos struct {
	singleAttr
	posSet *ValueSet
}

// POS constructs POS(A, POS-set{v1, …, vm}).
func POS(attr string, posSet ...Value) *Pos {
	return &Pos{oneAttr(attr), NewValueSet(posSet...)}
}

// PosSet returns the preference's set of favorite values.
func (p *Pos) PosSet() *ValueSet { return p.posSet }

// Less reports x <P y iff x ∉ POS-set ∧ y ∈ POS-set.
func (p *Pos) Less(x, y Tuple) bool {
	xv, xok := p.value(x)
	yv, yok := p.value(y)
	if !xok || !yok {
		return false
	}
	return !p.posSet.Contains(xv) && p.posSet.Contains(yv)
}

// String renders the preference term in the paper's notation.
func (p *Pos) String() string {
	return fmt.Sprintf("POS(%s, %s)", p.attr, p.posSet)
}

// Neg is the NEG preference of Definition 6b: a desired value should not be
// any from a finite set of dislikes; if unavoidable, a disliked value still
// beats getting nothing.
type Neg struct {
	singleAttr
	negSet *ValueSet
}

// NEG constructs NEG(A, NEG-set{v1, …, vm}).
func NEG(attr string, negSet ...Value) *Neg {
	return &Neg{oneAttr(attr), NewValueSet(negSet...)}
}

// NegSet returns the preference's set of disliked values.
func (p *Neg) NegSet() *ValueSet { return p.negSet }

// Less reports x <P y iff y ∉ NEG-set ∧ x ∈ NEG-set.
func (p *Neg) Less(x, y Tuple) bool {
	xv, xok := p.value(x)
	yv, yok := p.value(y)
	if !xok || !yok {
		return false
	}
	return !p.negSet.Contains(yv) && p.negSet.Contains(xv)
}

// String renders the preference term in the paper's notation.
func (p *Neg) String() string {
	return fmt.Sprintf("NEG(%s, %s)", p.attr, p.negSet)
}

// PosNeg is the POS/NEG preference of Definition 6c: favorites on level 1,
// dislikes on level 3, everything else on level 2. POS-set and NEG-set must
// be disjoint.
type PosNeg struct {
	singleAttr
	posSet *ValueSet
	negSet *ValueSet
}

// POSNEG constructs POS/NEG(A, POS-set; NEG-set). It returns an error when
// the two sets are not disjoint, which Definition 6c requires.
func POSNEG(attr string, posSet, negSet []Value) (*PosNeg, error) {
	ps, ns := NewValueSet(posSet...), NewValueSet(negSet...)
	if !ps.Disjoint(ns) {
		return nil, fmt.Errorf("pref: POS/NEG(%s): POS-set %s and NEG-set %s are not disjoint", attr, ps, ns)
	}
	return &PosNeg{oneAttr(attr), ps, ns}, nil
}

// MustPOSNEG is POSNEG that panics on overlapping sets; for statically
// known literals.
func MustPOSNEG(attr string, posSet, negSet []Value) *PosNeg {
	p, err := POSNEG(attr, posSet, negSet)
	if err != nil {
		panic(err)
	}
	return p
}

// PosSet returns the favorite values (level 1).
func (p *PosNeg) PosSet() *ValueSet { return p.posSet }

// NegSet returns the disliked values (level 3).
func (p *PosNeg) NegSet() *ValueSet { return p.negSet }

// Less implements Definition 6c:
// x <P y iff (x ∈ NEG ∧ y ∉ NEG) ∨ (x ∉ NEG ∧ x ∉ POS ∧ y ∈ POS).
func (p *PosNeg) Less(x, y Tuple) bool {
	xv, xok := p.value(x)
	yv, yok := p.value(y)
	if !xok || !yok {
		return false
	}
	xNeg, yNeg := p.negSet.Contains(xv), p.negSet.Contains(yv)
	if xNeg && !yNeg {
		return true
	}
	return !xNeg && !p.posSet.Contains(xv) && p.posSet.Contains(yv)
}

// String renders the preference term in the paper's notation.
func (p *PosNeg) String() string {
	return fmt.Sprintf("POS/NEG(%s, %s; %s)", p.attr, p.posSet, p.negSet)
}

// PosPos is the POS/POS preference of Definition 6d: favorites on level 1,
// second-best alternatives on level 2, everything else on level 3. The two
// sets must be disjoint.
type PosPos struct {
	singleAttr
	pos1 *ValueSet
	pos2 *ValueSet
}

// POSPOS constructs POS/POS(A, POS1-set; POS2-set). It returns an error
// when the two sets are not disjoint.
func POSPOS(attr string, pos1, pos2 []Value) (*PosPos, error) {
	s1, s2 := NewValueSet(pos1...), NewValueSet(pos2...)
	if !s1.Disjoint(s2) {
		return nil, fmt.Errorf("pref: POS/POS(%s): POS1-set %s and POS2-set %s are not disjoint", attr, s1, s2)
	}
	return &PosPos{oneAttr(attr), s1, s2}, nil
}

// MustPOSPOS is POSPOS that panics on overlapping sets.
func MustPOSPOS(attr string, pos1, pos2 []Value) *PosPos {
	p, err := POSPOS(attr, pos1, pos2)
	if err != nil {
		panic(err)
	}
	return p
}

// Pos1Set returns the favorite values (level 1).
func (p *PosPos) Pos1Set() *ValueSet { return p.pos1 }

// Pos2Set returns the second-best alternatives (level 2).
func (p *PosPos) Pos2Set() *ValueSet { return p.pos2 }

// Less implements Definition 6d:
// x <P y iff (x ∈ POS2 ∧ y ∈ POS1) ∨ (x ∉ POS1 ∧ x ∉ POS2 ∧ y ∈ POS2)
//
//	∨ (x ∉ POS1 ∧ x ∉ POS2 ∧ y ∈ POS1).
func (p *PosPos) Less(x, y Tuple) bool {
	xv, xok := p.value(x)
	yv, yok := p.value(y)
	if !xok || !yok {
		return false
	}
	x1, x2 := p.pos1.Contains(xv), p.pos2.Contains(xv)
	y1, y2 := p.pos1.Contains(yv), p.pos2.Contains(yv)
	if x2 && y1 {
		return true
	}
	return !x1 && !x2 && (y1 || y2)
}

// String renders the preference term in the paper's notation.
func (p *PosPos) String() string {
	return fmt.Sprintf("POS/POS(%s, %s; %s)", p.attr, p.pos1, p.pos2)
}

// Edge is one explicit 'better-than' relationship (worse, better): worse <E
// better. Note the orientation follows the paper's EXPLICIT-graph pairs
// (val1, val2) with val1 <E val2.
type Edge struct {
	Worse  Value
	Better Value
}

// Explicit is the EXPLICIT preference of Definition 6e: a handcrafted
// finite 'better-than' graph, transitively closed, with every value in the
// graph better than every value outside it.
type Explicit struct {
	singleAttr
	edges []Edge
	// closure maps ValueKey(worse) → set of ValueKey(better) over the
	// transitive closure of the edge list.
	closure map[string]map[string]struct{}
	rng     *ValueSet // range(<E): all values occurring in the graph
}

// EXPLICIT constructs EXPLICIT(A, EXPLICIT-graph{(val1, val2), …}). It
// returns an error if the edge list contains a cycle (the graph must be a
// finite acyclic better-than graph).
func EXPLICIT(attr string, edges []Edge) (*Explicit, error) {
	var rangeVals []Value
	for _, e := range edges {
		rangeVals = append(rangeVals, e.Worse, e.Better)
	}
	rng := NewValueSet(rangeVals...)
	closure := make(map[string]map[string]struct{})
	addEdge := func(from, to string) {
		set, ok := closure[from]
		if !ok {
			set = make(map[string]struct{})
			closure[from] = set
		}
		set[to] = struct{}{}
	}
	for _, e := range edges {
		addEdge(ValueKey(e.Worse), ValueKey(e.Better))
	}
	// Floyd–Warshall style transitive closure over the (small) range.
	keys := make([]string, 0, rng.Len())
	for _, v := range rng.Values() {
		keys = append(keys, ValueKey(v))
	}
	for _, k := range keys {
		for _, i := range keys {
			if _, ik := closure[i][k]; !ik {
				continue
			}
			for j := range closure[k] {
				addEdge(i, j)
			}
		}
	}
	for _, k := range keys {
		if _, refl := closure[k][k]; refl {
			return nil, fmt.Errorf("pref: EXPLICIT(%s): better-than graph contains a cycle through %s", attr, k)
		}
	}
	return &Explicit{oneAttr(attr), edges, closure, rng}, nil
}

// MustEXPLICIT is EXPLICIT that panics on a cyclic graph.
func MustEXPLICIT(attr string, edges []Edge) *Explicit {
	p, err := EXPLICIT(attr, edges)
	if err != nil {
		panic(err)
	}
	return p
}

// Edges returns the originally supplied edge list.
func (p *Explicit) Edges() []Edge { return p.edges }

// Range returns range(<E): every value mentioned in the graph.
func (p *Explicit) Range() *ValueSet { return p.rng }

// InGraphLess reports v <E w within the explicit graph's transitive
// closure, ignoring the "graph values beat other values" rule.
func (p *Explicit) InGraphLess(v, w Value) bool {
	_, ok := p.closure[ValueKey(v)][ValueKey(w)]
	return ok
}

// Less implements Definition 6e:
// x <P y iff x <E y ∨ (x ∉ range(<E) ∧ y ∈ range(<E)).
func (p *Explicit) Less(x, y Tuple) bool {
	xv, xok := p.value(x)
	yv, yok := p.value(y)
	if !xok || !yok {
		return false
	}
	if p.InGraphLess(xv, yv) {
		return true
	}
	return !p.rng.Contains(xv) && p.rng.Contains(yv)
}

// String renders the preference term in the paper's notation.
func (p *Explicit) String() string {
	parts := make([]string, 0, len(p.edges))
	for _, e := range p.edges {
		parts = append(parts, fmt.Sprintf("(%s, %s)", FormatValue(e.Worse), FormatValue(e.Better)))
	}
	return fmt.Sprintf("EXPLICIT(%s, {%s})", p.attr, strings.Join(parts, ", "))
}
