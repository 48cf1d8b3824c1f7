// Package pref implements the preference model of Kießling's "Foundations
// of Preferences in Database Systems" (VLDB 2002): preferences as strict
// partial orders over sets of attribute names, base preference constructors
// (POS, NEG, POS/NEG, POS/POS, EXPLICIT, AROUND, BETWEEN, LOWEST, HIGHEST,
// SCORE) and complex preference constructors (Pareto accumulation ⊗,
// prioritized accumulation &, numerical accumulation rank(F), intersection ♦,
// disjoint union +, linear sum ⊕), together with dual and anti-chain
// preferences, better-than graphs and strict-partial-order validation.
//
// A preference P = (A, <P) is represented by a value implementing the
// Preference interface. The relation x <P y is read "y is better than x"
// and is evaluated by Preference.Less against the projections of two tuples
// onto the preference's attribute set.
package pref

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Value is a domain value. The kernel understands string, bool, time.Time
// and all Go integer and float types; integers and floats compare
// numerically with each other (int64(5) equals float64(5)).
type Value = any

// numeric converts v to float64 if v is any Go numeric type.
func numeric(v Value) (float64, bool) {
	switch n := v.(type) {
	case int:
		return float64(n), true
	case int8:
		return float64(n), true
	case int16:
		return float64(n), true
	case int32:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint:
		return float64(n), true
	case uint8:
		return float64(n), true
	case uint16:
		return float64(n), true
	case uint32:
		return float64(n), true
	case uint64:
		return float64(n), true
	case float32:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}

// Numeric reports v as a float64 when v is a numeric value.
func Numeric(v Value) (float64, bool) { return numeric(v) }

// EqualValues reports whether two domain values are equal. Numeric values
// of different Go types compare numerically; time.Time values compare with
// time.Time.Equal; everything else requires identical dynamic type and ==.
func EqualValues(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if na, ok := numeric(a); ok {
		nb, ok := numeric(b)
		return ok && na == nb
	}
	if ta, ok := a.(time.Time); ok {
		tb, ok := b.(time.Time)
		return ok && ta.Equal(tb)
	}
	return a == b
}

// CompareValues orders two values of a comparable domain: -1 if a sorts
// before b, 0 if equal, +1 if after. It reports ok=false when the values
// are not mutually comparable (mixed non-numeric types, or a type without
// a total order).
func CompareValues(a, b Value) (cmp int, ok bool) {
	if na, aok := numeric(a); aok {
		nb, bok := numeric(b)
		if !bok {
			return 0, false
		}
		switch {
		case na < nb:
			return -1, true
		case na > nb:
			return 1, true
		}
		return 0, true
	}
	switch av := a.(type) {
	case string:
		bv, ok := b.(string)
		if !ok {
			return 0, false
		}
		return strings.Compare(av, bv), true
	case bool:
		bv, ok := b.(bool)
		if !ok {
			return 0, false
		}
		switch {
		case av == bv:
			return 0, true
		case !av:
			return -1, true
		}
		return 1, true
	case time.Time:
		bv, ok := b.(time.Time)
		if !ok {
			return 0, false
		}
		return av.Compare(bv), true
	}
	return 0, false
}

// ValueKey returns a canonical string key for a value, suitable for use as
// a map key across mixed numeric types. Distinct values map to distinct
// keys within a single domain.
func ValueKey(v Value) string {
	if v == nil {
		return "\x00nil"
	}
	if n, ok := numeric(v); ok {
		if n == 0 {
			n = 0 // −0 equals +0 under EqualValues: one key for both
		}
		return "n:" + strconv.FormatFloat(n, 'g', -1, 64)
	}
	switch t := v.(type) {
	case string:
		return "s:" + t
	case bool:
		return "b:" + strconv.FormatBool(t)
	case time.Time:
		return "t:" + t.UTC().Format(time.RFC3339Nano)
	}
	return fmt.Sprintf("o:%T:%v", v, v)
}

// FormatValue renders a value for display in better-than graphs and query
// results.
func FormatValue(v Value) string {
	if v == nil {
		return "NULL"
	}
	switch t := v.(type) {
	case string:
		return t
	case float64:
		if t == math.Trunc(t) && math.Abs(t) < 1e15 {
			return strconv.FormatFloat(t, 'f', 0, 64)
		}
		return strconv.FormatFloat(t, 'g', -1, 64)
	case time.Time:
		return t.Format("2006-01-02")
	}
	return fmt.Sprint(v)
}

// ValueSet is a finite set of domain values with numeric-aware membership,
// used for POS-sets, NEG-sets and anti-chain domains.
type ValueSet struct {
	keys   map[string]struct{}
	values []Value
}

// NewValueSet builds a set from the given values, dropping duplicates while
// preserving first-seen order.
func NewValueSet(values ...Value) *ValueSet {
	s := &ValueSet{keys: make(map[string]struct{}, len(values))}
	for _, v := range values {
		k := ValueKey(v)
		if _, dup := s.keys[k]; dup {
			continue
		}
		s.keys[k] = struct{}{}
		s.values = append(s.values, v)
	}
	return s
}

// Contains reports set membership.
func (s *ValueSet) Contains(v Value) bool {
	if s == nil {
		return false
	}
	_, ok := s.keys[ValueKey(v)]
	return ok
}

// Len returns the number of distinct values in the set.
func (s *ValueSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.values)
}

// Values returns the set's values in insertion order. The slice is shared;
// callers must not modify it.
func (s *ValueSet) Values() []Value {
	if s == nil {
		return nil
	}
	return s.values
}

// Disjoint reports whether s and t share no value.
func (s *ValueSet) Disjoint(t *ValueSet) bool {
	if s == nil || t == nil {
		return true
	}
	small, large := s, t
	if small.Len() > large.Len() {
		small, large = large, small
	}
	for _, v := range small.values {
		if large.Contains(v) {
			return false
		}
	}
	return true
}

// String renders the set as {v1, v2, …}.
func (s *ValueSet) String() string {
	parts := make([]string, 0, s.Len())
	for _, v := range s.Values() {
		parts = append(parts, FormatValue(v))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SortValues orders a value slice by CompareValues where possible, falling
// back to the canonical key order for incomparable values. It is used for
// deterministic output of graphs and query results.
func SortValues(vs []Value) {
	sort.SliceStable(vs, func(i, j int) bool {
		if c, ok := CompareValues(vs[i], vs[j]); ok {
			return c < 0
		}
		return ValueKey(vs[i]) < ValueKey(vs[j])
	})
}
