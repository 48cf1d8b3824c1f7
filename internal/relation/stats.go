package relation

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/pref"
)

// ColStats summarizes one column for the cost-based planner: domain width
// (distinct count), numeric range, and physical order. Sortedness matters
// because sort-filter-skyline can skip its presort when the relation is
// already ordered by a compatible key.
type ColStats struct {
	Name     string
	Type     Type
	Distinct int // distinct values among the sampled rows
	// Numeric range; valid only when HasRange is true (numeric column with
	// at least one non-nil value).
	Min, Max float64
	HasRange bool
	// Physical order of the column over the full relation. A column of
	// fewer than two rows is trivially sorted both ways.
	SortedAsc, SortedDesc bool
}

// Stats are relation-level statistics driving cost-based plan selection:
// cardinality, per-column summaries, and the mean pairwise correlation of
// the numeric columns. Correlation is the single most important input to
// skyline cardinality estimation — anti-correlated data inflates BMO
// results by orders of magnitude (observed since [BKS01]) — so the planner
// reads it to scale its result-size estimate.
type Stats struct {
	Card    int // card(R)
	Sampled int // rows examined for the sampled statistics (distinct, correlation)
	Cols    []ColStats
	// Corr is the mean pairwise Pearson correlation over numeric columns,
	// in [-1, 1]; valid only when HasCorr is true (≥ 2 numeric columns and
	// ≥ 2 sampled rows).
	Corr    float64
	HasCorr bool

	byName map[string]int
}

// statsKey is the memo key of a generation's statistics (Relation.Stats).
const statsKey = "stats"

// bytes estimates the analysis's size for its generation's memo.
func (s *Stats) bytes() int { return 128 + 96*len(s.Cols) }

// Col returns the statistics of the named column.
func (s *Stats) Col(name string) (ColStats, bool) {
	i, ok := s.byName[name]
	if !ok {
		return ColStats{}, false
	}
	return s.Cols[i], true
}

// String renders a one-line summary for plan explanations.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "card=%d sampled=%d", s.Card, s.Sampled)
	if s.HasCorr {
		fmt.Fprintf(&b, " corr=%+.2f", s.Corr)
	}
	for _, c := range s.Cols {
		fmt.Fprintf(&b, " %s(distinct=%d", c.Name, c.Distinct)
		if c.HasRange {
			fmt.Fprintf(&b, " range=[%g,%g]", c.Min, c.Max)
		}
		switch {
		case c.SortedAsc && c.SortedDesc:
			b.WriteString(" const")
		case c.SortedAsc:
			b.WriteString(" asc")
		case c.SortedDesc:
			b.WriteString(" desc")
		}
		b.WriteString(")")
	}
	return b.String()
}

// statsSample bounds the rows Stats samples for distinct and correlation
// statistics.
const statsSample = 2048

// Analyze computes full-scan statistics for R.
func Analyze(r *Relation) *Stats { return AnalyzeSample(r, r.Len()) }

// AnalyzeSample computes statistics with the expensive parts (distinct
// counting, correlation) restricted to an evenly spaced sample of at most
// sample rows. Min/max and sortedness always use the full scan — they are
// O(n) with trivial constants, and sortedness is meaningless on a sample.
// A non-positive sample analyzes every row.
//
// Numeric columns are analyzed through their typed arrays (FloatColumn):
// on a paged relation those are the mmap'd segment vectors, so analysis
// never decodes row pages for them. Only columns without a float image
// (STRING, BOOL, TIME) take the row path, and that path decodes each row
// once for all of them together — the per-(row, column) decode storm the
// naive column-major scan would cost on disk-backed tables.
func AnalyzeSample(r *Relation, sample int) *Stats {
	n := r.Len()
	if sample <= 0 || sample > n {
		sample = n
	}
	s := &Stats{Card: n, byName: make(map[string]int, r.Schema().Len())}
	stride := 1
	if sample > 0 {
		stride = (n + sample - 1) / sample
	}

	cols := r.Schema().Columns()
	stats := make([]ColStats, len(cols))
	numericIdx := []int{}
	var vecs [][]float64 // typed arrays of the numeric columns, for corr
	var masks [][]bool
	var rowCols []int // columns only the row pass can serve
	for ci, col := range cols {
		stats[ci] = ColStats{
			Name:      col.Name,
			Type:      col.Type,
			SortedAsc: true, SortedDesc: true,
		}
		if col.Type == Int || col.Type == Float {
			numericIdx = append(numericIdx, ci)
			if vals, mask, ok := r.FloatColumn(col.Name); ok {
				vecs, masks = append(vecs, vals), append(masks, mask)
				analyzeFloats(&stats[ci], vals, mask, stride)
				continue
			}
			vecs, masks = append(vecs, nil), append(masks, nil)
		}
		rowCols = append(rowCols, ci)
	}

	if len(rowCols) > 0 {
		analyzeRows(r, rowCols, stats, stride)
	}
	s.Cols = stats
	for ci, col := range cols {
		s.byName[col.Name] = ci
	}
	s.Sampled = 0
	for i := 0; i < n; i += stride {
		s.Sampled++
	}
	s.Corr, s.HasCorr = meanPairwiseCorr(r, numericIdx, vecs, masks, stride)
	return s
}

// analyzeFloats fills one column's statistics from its typed array:
// full-scan min/max and physical order over the on-scale values, distinct
// counting on the stride sample. NaN compares unordered against
// everything (matching pref.CompareValues), so it never breaks
// sortedness; off-scale entries are NULLs for INT/FLOAT columns and form
// one distinct class.
func analyzeFloats(cs *ColStats, vals []float64, mask []bool, stride int) {
	distinct := make(map[float64]struct{})
	sawNull := false
	for i, v := range vals {
		if mask[i] {
			if !cs.HasRange || v < cs.Min {
				cs.Min = v
			}
			if !cs.HasRange || v > cs.Max {
				cs.Max = v
			}
			cs.HasRange = true
		}
		if i%stride == 0 {
			if mask[i] {
				distinct[v] = struct{}{}
			} else {
				sawNull = true
			}
		}
		if i > 0 && (cs.SortedAsc || cs.SortedDesc) && mask[i] && mask[i-1] {
			if vals[i-1] > v {
				cs.SortedAsc = false
			}
			if vals[i-1] < v {
				cs.SortedDesc = false
			}
		}
	}
	cs.Distinct = len(distinct)
	if sawNull {
		cs.Distinct++
	}
}

// analyzeRows covers the columns without a typed array in one row-major
// pass: each row is fetched once — on a paged relation one page decode
// serves every remaining column of the row.
func analyzeRows(r *Relation, rowCols []int, stats []ColStats, stride int) {
	n := r.Len()
	distinct := make([]map[pref.Value]struct{}, len(rowCols))
	prev := make([]pref.Value, len(rowCols))
	for k := range distinct {
		distinct[k] = make(map[pref.Value]struct{})
	}
	for i := 0; i < n; i++ {
		row := r.Row(i)
		for k, ci := range rowCols {
			v := row[ci]
			cs := &stats[ci]
			if f, ok := pref.Numeric(v); ok {
				if !cs.HasRange || f < cs.Min {
					cs.Min = f
				}
				if !cs.HasRange || f > cs.Max {
					cs.Max = f
				}
				cs.HasRange = true
			}
			if i%stride == 0 {
				distinct[k][v] = struct{}{}
			}
			if i > 0 && (cs.SortedAsc || cs.SortedDesc) {
				if c, ok := pref.CompareValues(prev[k], v); ok {
					if c > 0 {
						cs.SortedAsc = false
					}
					if c < 0 {
						cs.SortedDesc = false
					}
				}
			}
			prev[k] = v
		}
	}
	for k, ci := range rowCols {
		stats[ci].Distinct = len(distinct[k])
	}
}

// meanPairwiseCorr computes the mean Pearson correlation over all pairs of
// the given numeric columns, on every stride-th row. Columns with a typed
// array are read from it (vecs/masks parallel cols); a nil vec falls back
// to the row interface.
func meanPairwiseCorr(r *Relation, cols []int, vecs [][]float64, masks [][]bool, stride int) (float64, bool) {
	if len(cols) < 2 {
		return 0, false
	}
	var rows [][]float64
	for i := 0; i < r.Len(); i += stride {
		vec := make([]float64, len(cols))
		ok := true
		var row Row
		for k, ci := range cols {
			var f float64
			var isNum bool
			if vecs[k] != nil {
				f, isNum = vecs[k][i], masks[k][i]
			} else {
				if row == nil {
					row = r.Row(i)
				}
				f, isNum = pref.Numeric(row[ci])
			}
			if !isNum {
				ok = false
				break
			}
			vec[k] = f
		}
		if ok {
			rows = append(rows, vec)
		}
	}
	if len(rows) < 2 {
		return 0, false
	}
	mean := make([]float64, len(cols))
	for _, vec := range rows {
		for k, v := range vec {
			mean[k] += v
		}
	}
	for k := range mean {
		mean[k] /= float64(len(rows))
	}
	variance := make([]float64, len(cols))
	for _, vec := range rows {
		for k, v := range vec {
			d := v - mean[k]
			variance[k] += d * d
		}
	}
	var sum float64
	pairs := 0
	for a := 0; a < len(cols); a++ {
		for b := a + 1; b < len(cols); b++ {
			if variance[a] == 0 || variance[b] == 0 {
				continue // constant column: correlation undefined, treat as 0
			}
			var cov float64
			for _, vec := range rows {
				cov += (vec[a] - mean[a]) * (vec[b] - mean[b])
			}
			sum += cov / math.Sqrt(variance[a]*variance[b])
			pairs++
		}
	}
	if pairs == 0 {
		return 0, true // all-constant columns: uncorrelated by convention
	}
	return sum / float64(pairs), true
}
