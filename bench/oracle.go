package main

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/server"
)

// The correctness oracle evaluates a statement through a path that
// shares nothing with the serving path: the table flattened to one
// relation, WHERE applied by Relation.WhereIndices, then block-nested-
// loops BMO over interpreted tuples (engine.BNL + EvalInterpreted: no
// compiled forms, no dominance kernel, no shards, no result cache; the
// smoke test's toy tables use engine.Naive). It runs outside every
// timed interval.

// oracleRows returns the canonical row keys the statement must return,
// and whether the wire result may be any k-subset of them (a BMO
// statement with TOP k: the stream serves the best-keyed k, the batch
// path the first k in row order — both are k members of the same set).
func oracleRows(q *psql.Query, flat *relation.Relation, naive bool) (want map[string]int, subsetOf int, err error) {
	cand := flat
	if q.Where != nil {
		cand = flat.Pick(flat.WhereIndices(q.Where))
	}
	var out *relation.Relation
	switch {
	case q.Preferring == nil:
		out = cand
	default:
		p, err := q.Preferring.Build()
		if err != nil {
			return nil, 0, err
		}
		if s, ok := p.(pref.Scorer); ok && q.Top > 0 {
			// Ranked model: the k best by interpreted score, ties to the
			// lower row position.
			type scored struct {
				i int
				s float64
			}
			all := make([]scored, cand.Len())
			for i := range all {
				all[i] = scored{i, s.ScoreOf(cand.Tuple(i))}
			}
			sort.SliceStable(all, func(a, b int) bool { return all[a].s > all[b].s })
			idx := make([]int, min(q.Top, len(all)))
			for i := range idx {
				idx[i] = all[i].i
			}
			out = cand.Pick(idx)
		} else {
			alg := engine.BNL
			if naive {
				alg = engine.Naive
			}
			out = cand.Pick(engine.BMOIndicesMode(p, cand, alg, engine.EvalInterpreted))
			if q.Top > 0 && out.Len() > q.Top {
				subsetOf = q.Top
			}
		}
	}
	if len(q.Select) > 0 {
		if out, err = out.Project(q.Select); err != nil {
			return nil, 0, err
		}
	}
	want = make(map[string]int, out.Len())
	for i := 0; i < out.Len(); i++ {
		want[rowKey(out.Row(i))]++
	}
	return want, subsetOf, nil
}

// checkAgainstOracle compares wire rows with the oracle's row multiset.
func checkAgainstOracle(got []relation.Row, want map[string]int, subsetOf int) error {
	seen := make(map[string]int, len(got))
	for _, row := range got {
		k := rowKey(row)
		seen[k]++
		if seen[k] > want[k] {
			return fmt.Errorf("row %v is not in the oracle's result", row)
		}
	}
	total := 0
	for _, n := range want {
		total += n
	}
	if subsetOf > 0 {
		if len(got) != subsetOf {
			return fmt.Errorf("%d rows, want %d of the oracle's %d", len(got), subsetOf, total)
		}
		return nil
	}
	if len(got) != total {
		return fmt.Errorf("%d rows, oracle has %d", len(got), total)
	}
	return nil
}

// poolOracle computes the oracle row-set hash of every pool statement
// over the table as set up; the window checks each pool response
// against it.
func poolOracle(pool []string, flat *relation.Relation, naive bool) ([]uint64, error) {
	hashes := make([]uint64, len(pool))
	for i, stmt := range pool {
		q, err := psql.Parse(stmt)
		if err != nil {
			return nil, err
		}
		want, _, err := oracleRows(q, flat, naive)
		if err != nil {
			return nil, err
		}
		var h setHash
		for key, count := range want {
			for j := 0; j < count; j++ {
				h.add(key)
			}
		}
		hashes[i] = h.value()
	}
	return hashes, nil
}

// sampleStatements picks up to n read statements from the head of the
// seeded sequence, at most n/2+1 of one class, so every class the
// workload has is covered.
func sampleStatements(gen func() op, n int) []op {
	var out []op
	perClass := make(map[opClass]int)
	for scanned := 0; scanned < 400 && len(out) < n; scanned++ {
		o := gen()
		if o.class == classInsert || perClass[o.class] > n/2 {
			continue
		}
		perClass[o.class]++
		out = append(out, o)
	}
	return out
}

// verifySample runs each sampled statement over the wire and compares
// its rows with the oracle's over a snapshot of the same length. It is
// called when no writer is running, so the live table is that snapshot.
func verifySample(inst *instance, ops []op, naive bool) (checked int, failures []string) {
	flat := flatten(inst.table)
	c := inst.clients[0]
	for _, o := range ops {
		checked++
		q, err := psql.Parse(o.stmt)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", o.stmt, err))
			continue
		}
		var got []relation.Row
		var snapLen uint64
		if o.class == classStream {
			hdr, _, serr := c.Stream(o.stmt, func(r relation.Row) bool { got = append(got, r); return true })
			err, snapLen = serr, hdr.SnapLen
		} else {
			var rs *server.Resultset
			if rs, err = c.Query(o.stmt); err == nil {
				got, snapLen = rs.Rows(), rs.Header.SnapLen
			}
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", o.stmt, err))
			continue
		}
		if snapLen != uint64(flat.Len()) {
			failures = append(failures, fmt.Sprintf("%s: snapshot of %d rows, table has %d", o.stmt, snapLen, flat.Len()))
			continue
		}
		want, subsetOf, err := oracleRows(q, flat, naive)
		if err == nil {
			err = checkAgainstOracle(got, want, subsetOf)
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", o.stmt, err))
		}
	}
	return checked, failures
}
