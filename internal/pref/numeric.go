package pref

import (
	"fmt"
	"math"
	"time"
)

// toScale converts a value of an ordered SQL-like domain to a float64
// position on a linear scale: numerics map to themselves, time.Time to Unix
// seconds (the paper notes AROUND etc. apply to "other ordered SQL types
// like Date").
func toScale(v Value) (float64, bool) {
	if n, ok := numeric(v); ok {
		return n, true
	}
	if t, ok := v.(time.Time); ok {
		return float64(t.Unix()), true
	}
	return 0, false
}

// Around is the AROUND preference of Definition 7a: a desired value should
// be z; failing that, values with the shortest distance from z are best.
// Values at equal distance on opposite sides are unranked.
type Around struct {
	singleAttr
	z float64
}

// AROUND constructs AROUND(A, z).
func AROUND(attr string, z float64) *Around {
	return &Around{oneAttr(attr), z}
}

// AROUNDTime constructs AROUND over a date/time target.
func AROUNDTime(attr string, z time.Time) *Around {
	return &Around{oneAttr(attr), float64(z.Unix())}
}

// Target returns z.
func (p *Around) Target() float64 { return p.z }

// Distance returns distance(v, z) = |v − z|, or +Inf when v is not on the
// attribute's linear scale (quality function DISTANCE of §6.1).
func (p *Around) Distance(v Value) float64 {
	n, ok := toScale(v)
	if !ok {
		return math.Inf(1)
	}
	return math.Abs(n - p.z)
}

// ScoreOf implements Scorer via the §3.4 hierarchy AROUND ≼ BETWEEN ≼ SCORE
// with f(x) = −distance(x, z).
func (p *Around) ScoreOf(t Tuple) float64 {
	v, ok := p.value(t)
	if !ok {
		return math.Inf(-1)
	}
	return -p.Distance(v)
}

// Less reports x <P y iff distance(x, z) > distance(y, z).
func (p *Around) Less(x, y Tuple) bool {
	xv, xok := p.value(x)
	yv, yok := p.value(y)
	if !xok || !yok {
		return false
	}
	// A value off the linear scale (NULL, wrong type) has infinite
	// distance and loses to any on-scale value; two off-scale values stay
	// unranked (Inf > Inf is false).
	return p.Distance(xv) > p.Distance(yv)
}

// String renders the preference term in the paper's notation.
func (p *Around) String() string {
	return fmt.Sprintf("AROUND(%s, %s)", p.attr, FormatValue(p.z))
}

// Between is the BETWEEN preference of Definition 7b: a desired value
// should lie within [low, up]; failing that, values with the shortest
// distance from the interval boundary are best.
type Between struct {
	singleAttr
	low, up float64
}

// BETWEEN constructs BETWEEN(A, [low, up]). It returns an error when
// low > up.
func BETWEEN(attr string, low, up float64) (*Between, error) {
	if low > up {
		return nil, fmt.Errorf("pref: BETWEEN(%s): low %v > up %v", attr, low, up)
	}
	return &Between{oneAttr(attr), low, up}, nil
}

// MustBETWEEN is BETWEEN that panics on an inverted interval.
func MustBETWEEN(attr string, low, up float64) *Between {
	p, err := BETWEEN(attr, low, up)
	if err != nil {
		panic(err)
	}
	return p
}

// Bounds returns [low, up].
func (p *Between) Bounds() (low, up float64) { return p.low, p.up }

// Distance returns distance(v, [low, up]) per Definition 7b: 0 inside the
// interval, otherwise the gap to the nearer boundary.
func (p *Between) Distance(v Value) float64 {
	n, ok := toScale(v)
	if !ok {
		return math.Inf(1)
	}
	switch {
	case n < p.low:
		return p.low - n
	case n > p.up:
		return n - p.up
	}
	return 0
}

// ScoreOf implements Scorer with f(x) = −distance(x, [low, up]).
func (p *Between) ScoreOf(t Tuple) float64 {
	v, ok := p.value(t)
	if !ok {
		return math.Inf(-1)
	}
	return -p.Distance(v)
}

// Less reports x <P y iff distance(x, [low,up]) > distance(y, [low,up]).
func (p *Between) Less(x, y Tuple) bool {
	xv, xok := p.value(x)
	yv, yok := p.value(y)
	if !xok || !yok {
		return false
	}
	// Off-scale values lose to on-scale values, as for AROUND.
	return p.Distance(xv) > p.Distance(yv)
}

// String renders the preference term in the paper's notation.
func (p *Between) String() string {
	return fmt.Sprintf("BETWEEN(%s, [%s, %s])", p.attr, FormatValue(p.low), FormatValue(p.up))
}

// Lowest is the LOWEST preference of Definition 7c: as low as possible.
// LOWEST is a chain on its numeric domain.
type Lowest struct {
	singleAttr
}

// LOWEST constructs LOWEST(A).
func LOWEST(attr string) *Lowest { return &Lowest{oneAttr(attr)} }

// ScoreOf implements Scorer via LOWEST ≼ SCORE with f(x) = −x.
func (p *Lowest) ScoreOf(t Tuple) float64 {
	v, ok := p.value(t)
	if !ok {
		return math.Inf(-1)
	}
	n, ok := toScale(v)
	if !ok {
		return math.Inf(-1)
	}
	return -n
}

// Less reports x <P y iff x > y. Off-scale values score −Inf and lose to
// any on-scale value; two off-scale values stay unranked.
func (p *Lowest) Less(x, y Tuple) bool {
	if _, ok := p.value(x); !ok {
		return false
	}
	if _, ok := p.value(y); !ok {
		return false
	}
	return p.ScoreOf(x) < p.ScoreOf(y)
}

// String renders the preference term in the paper's notation.
func (p *Lowest) String() string { return fmt.Sprintf("LOWEST(%s)", p.attr) }

// Highest is the HIGHEST preference of Definition 7c: as high as possible.
// HIGHEST is a chain on its numeric domain and the dual of LOWEST
// (Proposition 3d).
type Highest struct {
	singleAttr
}

// HIGHEST constructs HIGHEST(A).
func HIGHEST(attr string) *Highest { return &Highest{oneAttr(attr)} }

// ScoreOf implements Scorer via HIGHEST ≼ SCORE with f(x) = x.
func (p *Highest) ScoreOf(t Tuple) float64 {
	v, ok := p.value(t)
	if !ok {
		return math.Inf(-1)
	}
	n, ok := toScale(v)
	if !ok {
		return math.Inf(-1)
	}
	return n
}

// Less reports x <P y iff x < y, with off-scale values scoring −Inf as
// for LOWEST.
func (p *Highest) Less(x, y Tuple) bool {
	if _, ok := p.value(x); !ok {
		return false
	}
	if _, ok := p.value(y); !ok {
		return false
	}
	return p.ScoreOf(x) < p.ScoreOf(y)
}

// String renders the preference term in the paper's notation.
func (p *Highest) String() string { return fmt.Sprintf("HIGHEST(%s)", p.attr) }

// Score is the SCORE preference of Definition 7d: the order induced by an
// arbitrary scoring function f: dom(A) → ℝ with x <P y iff f(x) < f(y).
// SCORE need not be a chain when f is not injective.
type Score struct {
	singleAttr
	name string
	f    func(Value) float64
}

// SCORE constructs SCORE(A, f). The name labels f in rendered terms.
func SCORE(attr, name string, f func(Value) float64) *Score {
	return &Score{oneAttr(attr), name, f}
}

// Fn returns the scoring function.
func (p *Score) Fn() func(Value) float64 { return p.f }

// ScoreOf implements Scorer.
func (p *Score) ScoreOf(t Tuple) float64 {
	v, ok := p.value(t)
	if !ok {
		return math.Inf(-1)
	}
	return p.f(v)
}

// Less reports x <P y iff f(x) < f(y).
func (p *Score) Less(x, y Tuple) bool {
	xv, xok := p.value(x)
	yv, yok := p.value(y)
	if !xok || !yok {
		return false
	}
	return p.f(xv) < p.f(yv)
}

// String renders the preference term in the paper's notation.
func (p *Score) String() string {
	return fmt.Sprintf("SCORE(%s, %s)", p.attr, p.name)
}
