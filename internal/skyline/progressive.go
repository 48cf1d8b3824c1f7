package skyline

import (
	"context"

	"repro/internal/engine"
	"repro/internal/relation"
)

// Progressive computes the skyline incrementally in the spirit of [TEO01]
// ("Efficient Progressive Skyline Computation", cited in §6.1): rows are
// presorted by a monotone score so that no later row can dominate an
// earlier one, and every confirmed skyline member is emitted immediately —
// first results arrive after a sort plus a few comparisons rather than
// after the full computation. yield receives the row index in R and
// returns false to stop early (e.g. after the first k skyline members).
// It returns the number of rows emitted.
//
// It is a thin wrapper over the engine's general streaming evaluator: a
// skyline clause is a chain product, whose entropy key (the sum of the
// per-dimension maximize-scores) makes every surviving candidate final on
// first sight.
func Progressive(c Clause, r *relation.Relation, yield func(row int) bool) (int, error) {
	st, err := Stream(c, r)
	if err != nil {
		return 0, err
	}
	return st.Each(yield), nil
}

// Stream starts progressive skyline evaluation and returns the row stream;
// the front-ends use it to serve first results before the scan completes.
func Stream(c Clause, r *relation.Relation) (*engine.ShardedStream, error) {
	p, err := c.Preference()
	if err != nil {
		return nil, err
	}
	return engine.EvalStreamCtx(context.Background(), p, r, engine.Auto, nil), nil
}

// FirstK returns the first k skyline rows in progressive emission order,
// the "show something immediately" use case of progressive skylines.
func FirstK(c Clause, r *relation.Relation, k int) ([]int, error) {
	var out []int
	_, err := Progressive(c, r, func(row int) bool {
		out = append(out, row)
		return len(out) < k
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
