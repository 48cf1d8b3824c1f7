// Package skyline implements the 'SKYLINE OF' clause of [BKS01], the
// restricted non-strict form of Pareto accumulation the paper discusses in
// §6.1: P = P1 ⊗ P2 ⊗ … ⊗ Pk where each Pi is a LOWEST or HIGHEST chain.
// On this fragment the paper's equality-based Pareto semantics and classic
// coordinate-wise dominance coincide, and the efficient maxima algorithms
// of [KLP75], [BKS01] and [TEO01] apply.
package skyline

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/relation"
)

// Direction states whether a skyline dimension is minimized or maximized.
type Direction int

// Dimension directions.
const (
	Min Direction = iota
	Max
)

// String renders the direction keyword.
func (d Direction) String() string {
	if d == Min {
		return "MIN"
	}
	return "MAX"
}

// Dim is one SKYLINE OF dimension.
type Dim struct {
	Attr string
	Dir  Direction
}

// String renders the dimension in SKYLINE OF syntax.
func (d Dim) String() string { return d.Attr + " " + d.Dir.String() }

// Clause is a parsed SKYLINE OF clause.
type Clause struct {
	Dims []Dim
}

// String renders the clause.
func (c Clause) String() string {
	parts := make([]string, len(c.Dims))
	for i, d := range c.Dims {
		parts[i] = d.String()
	}
	return "SKYLINE OF " + strings.Join(parts, ", ")
}

// Preference converts the clause to its equivalent Pareto accumulation of
// LOWEST/HIGHEST chains.
func (c Clause) Preference() (pref.Preference, error) {
	if len(c.Dims) == 0 {
		return nil, fmt.Errorf("skyline: SKYLINE OF requires at least one dimension")
	}
	ps := make([]pref.Preference, len(c.Dims))
	for i, d := range c.Dims {
		if d.Dir == Min {
			ps[i] = pref.LOWEST(d.Attr)
		} else {
			ps[i] = pref.HIGHEST(d.Attr)
		}
	}
	return pref.ParetoAll(ps...), nil
}

// Compute evaluates the skyline of R with the chosen algorithm.
func Compute(c Clause, r *relation.Relation, alg engine.Algorithm) (*relation.Relation, error) {
	p, err := c.Preference()
	if err != nil {
		return nil, err
	}
	return engine.BMO(p, r, alg), nil
}
