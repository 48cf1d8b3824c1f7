package pref

// Preference is a strict partial order P = (A, <P) over the tuples of a
// domain dom(A), per Definition 1 of the paper. Less(x, y) evaluates
// x <P y, read "y is better than x". Implementations must guarantee
// irreflexivity and transitivity (hence asymmetry) of the induced relation;
// CheckSPO verifies this on finite tuple sets and backs the property-based
// tests.
type Preference interface {
	// Attrs returns the sorted set of attribute names A the preference is
	// formulated over.
	Attrs() []string
	// Less reports x <P y, i.e. whether y is strictly better than x.
	Less(x, y Tuple) bool
	// String renders the preference term.
	String() string
}

// Scorer is implemented by preferences whose order is induced by a real-
// valued scoring function with "higher is better" (SCORE preferences and,
// through the sub-constructor hierarchy of §3.4, AROUND, BETWEEN, LOWEST
// and HIGHEST). rank(F) accepts any Scorer, realizing the paper's
// constructor-substitutability principle.
type Scorer interface {
	Preference
	// ScoreOf maps a tuple to its score; x <P y iff ScoreOf(x) < ScoreOf(y).
	ScoreOf(t Tuple) float64
}

// Domainer is implemented by preferences with an explicitly known finite
// value domain (anti-chains over value sets, EXPLICIT ranges). The linear
// sum constructor ⊕ needs Domainer operands to decide dom(A1) membership.
type Domainer interface {
	// Domain returns the preference's finite value domain.
	Domain() *ValueSet
}

// Comparable reports whether x and y are ranked by P in either direction;
// per Definition 2, values with no directed path between them are unranked.
func Comparable(p Preference, x, y Tuple) bool {
	return p.Less(x, y) || p.Less(y, x)
}

// Indifferent reports whether x and y are unranked by P: neither is better
// than the other. Unranked values are the paper's "natural reservoir to
// negotiate compromises".
func Indifferent(p Preference, x, y Tuple) bool {
	return !p.Less(x, y) && !p.Less(y, x)
}

// singleAttr is embedded by all base preferences over one attribute. Its
// attribute set is built once, with the term: binds and plans ask for it
// per statement.
type singleAttr struct {
	attr  string
	attrs []string
}

// oneAttr returns the singleAttr of attr.
func oneAttr(attr string) singleAttr { return singleAttr{attr, []string{attr}} }

func (s singleAttr) Attrs() []string { return s.attrs }

// Attr returns the single attribute a base preference is formulated on.
func (s singleAttr) Attr() string { return s.attr }

// value extracts the tuple's value for the base preference's attribute.
func (s singleAttr) value(t Tuple) (Value, bool) { return t.Get(s.attr) }
