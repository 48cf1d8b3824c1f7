package engine

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
)

// specialVals is the adversarial coordinate pool for the kernel property
// tests: both infinities, NaN, signed zeros, denormal-adjacent magnitudes
// and plain values — every comparison class the VCMPPD predicates must
// agree with Go's float64 ordering on.
var specialVals = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
	1e300, -1e300, 5e-324, math.MaxFloat64, -math.MaxFloat64,
}

// refDominated is the direct transcription of the dominance contract:
// some maximum is coordinate-wise ≥ the candidate on every dimension
// with > somewhere, NaN on either side blocking both.
func refDominated(maxima [][]float64, cand []float64) bool {
	for _, m := range maxima {
		ok, strict := true, false
		for k := range cand {
			if !(m[k] >= cand[k]) {
				ok = false
				break
			}
			if m[k] > cand[k] {
				strict = true
			}
		}
		if ok && strict {
			return true
		}
	}
	return false
}

// buildFilter assembles a blocks-leg filter directly over synthetic score
// vectors (no compiled form needed — the passes only read the shape's
// columns and the blocked stores): one group of len(vecs) dimensions, or
// the first head of them followed by single-leaf groups, each dimension
// tying on its own values, and the given rows confirmed as maxima — in the
// store and, negated, in the window pass's mirror.
func buildFilter(vecs [][]float64, head int, exact bool, maxima []int) *maximaFilter {
	fs := &pref.FlatShape{}
	on := make([]bool, len(vecs[0]))
	for i := range on {
		on[i] = true
	}
	for k, v := range vecs {
		fs.Dims = append(fs.Dims, pref.FlatDim{Score: v, Tie: pref.Tie{Val: v, On: on}})
		if k+1 >= head {
			fs.Ends = append(fs.Ends, k+1)
		}
	}
	f := newBlockFilter(fs, exact)
	for _, i := range maxima {
		f.mirror = f.putLane(f.mirror, len(f.rows), i, -1)
		f.confirm(i)
	}
	return f
}

// blockVerdictMasked is the portable model of the assembly kernel, its
// oracle on every build: the blocked bitmask pass over one of the filter's
// stores (the maxima, or the window pass's negated mirror) from block
// `from` on, testing cand, filterBlock lanes per iteration, one dimension
// at a time across the block, accumulating the ≥, > (seeded by strict0)
// and == masks — NaN pad lanes die on their first dimension, so full
// blocks need no tail handling — and the kernel's verdict encoding: the
// first block with an alive-and-strict lane as block<<16 | dom<<8 | tied
// (block counted from `from`), or −1.
func (f *maximaFilter) blockVerdictMasked(store, cand []float64, from int) int64 {
	nblocks := (len(f.rows) + filterBlock - 1) / filterBlock
	for b := from; b < nblocks; b++ {
		base := b * f.w * filterBlock
		alive := uint32(1)<<filterBlock - 1
		strict, tied := uint32(f.strict0)&alive, uint32(0)
		for k := 0; k < f.w && alive != 0; k++ {
			cv := cand[k]
			col := store[base+k*filterBlock : base+(k+1)*filterBlock]
			var ge, gt, eq uint32
			for lane, mv := range col {
				if mv >= cv {
					ge |= 1 << lane
				}
				if mv > cv {
					gt |= 1 << lane
				}
				if mv == cv {
					eq |= 1 << lane
				}
			}
			alive &= ge
			strict |= gt
			tied |= eq
		}
		if dom := alive & strict; dom != 0 {
			return int64(b-from)<<16 | int64(dom)<<8 | int64(dom&tied)
		}
	}
	return -1
}

// refVerdict is the verdict contract transcribed lane by lane: dom marks
// the maxima of the block that are ≥ the candidate on every dimension and
// (unless every ≥ lane is asked for) > on one, tied those of them equal to
// it on a dimension; NaN on either side of a comparison fails it.
func refVerdict(block [][]float64, cand []float64, all bool) (dom, tied uint8) {
	for lane, m := range block {
		ge, gt, eq := true, all, false
		for k := range cand {
			ge = ge && m[k] >= cand[k]
			gt = gt || m[k] > cand[k]
			eq = eq || m[k] == cand[k]
		}
		if ge && gt {
			dom |= 1 << lane
			if eq {
				tied |= 1 << lane
			}
		}
	}
	return dom, tied
}

// refBeaten is refVerdict with the roles swapped, the contract of the
// window pass's mirror sweep: dom marks the lanes of the block the
// candidate is ≥ on every dimension and (unless every ≥ lane is asked for)
// > on one, tied those of them equal to it on a dimension — on the scores
// as they are, so the mirror's negation (±0, ±Inf, NaN) is what is tested.
func refBeaten(block [][]float64, cand []float64, all bool) (dom, tied uint8) {
	for lane, m := range block {
		ge, gt, eq := true, all, false
		for k := range cand {
			ge = ge && cand[k] >= m[k]
			gt = gt || cand[k] > m[k]
			eq = eq || cand[k] == m[k]
		}
		if ge && gt {
			dom |= 1 << lane
			if eq {
				tied |= 1 << lane
			}
		}
	}
	return dom, tied
}

// TestKernelDominanceProperty holds the blocked passes — the portable
// masked model, and the AVX2 kernel when this machine has it — to the
// reference contract on NaN/±Inf/signed-zero-heavy inputs, across
// dimensions 1..6, both strict seeds, every resume point, and maxima
// counts that straddle block boundaries (0, partial, full, many blocks):
// which block answers, which lanes dominate, which of them tied — on the
// store, and on the window pass's negated mirror with the roles swapped
// (which lanes the candidate beats); and the filter's answers built on
// those verdicts to coordinate dominance, both ways.
func TestKernelDominanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		d := 1 + rng.Intn(6)
		n := 1 + rng.Intn(64)
		vecs := make([][]float64, d)
		for k := range vecs {
			vecs[k] = make([]float64, n)
			for i := range vecs[k] {
				vecs[k][i] = specialVals[rng.Intn(len(specialVals))]
			}
		}
		nMax := rng.Intn(n + 1)
		maxima := rng.Perm(n)[:nMax]
		head := d
		if trial%2 == 1 {
			head = 1 + rng.Intn(d) // further groups follow: every ≥ lane reports
		}
		f := buildFilter(vecs, head, head == d, maxima)
		coords := make([][]float64, nMax)
		for w, i := range maxima {
			coords[w] = make([]float64, head)
			for k := 0; k < head; k++ {
				coords[w][k] = vecs[k][i]
			}
		}
		nblocks := (nMax + filterBlock - 1) / filterBlock
		cand, neg := make([]float64, head), make([]float64, head)
		for i := 0; i < n; i++ {
			for k := 0; k < head; k++ {
				cand[k], neg[k] = vecs[k][i], -vecs[k][i]
			}
			for from := 0; from < nblocks; from++ {
				for _, dir := range []struct {
					name        string
					store, cand []float64
					ref         func(block [][]float64, cand []float64, all bool) (dom, tied uint8)
				}{{"store", f.blocks, cand, refVerdict}, {"mirror", f.mirror, neg, refBeaten}} {
					want := int64(-1)
					for b := from; b < nblocks && want < 0; b++ {
						block := coords[b*filterBlock : min(nMax, (b+1)*filterBlock)]
						if dom, tied := dir.ref(block, cand, head < d); dom != 0 {
							want = int64(b-from)<<16 | int64(dom)<<8 | int64(tied)
						}
					}
					if got := f.blockVerdictMasked(dir.store, dir.cand, from); got != want {
						t.Fatalf("trial %d row %d from block %d, %s: masked %#x, reference %#x (cand %v, maxima %v)", trial, i, from, dir.name, got, want, cand, coords)
					}
					if AVX2Available() {
						if got := dominatingBlockAVX2(&dir.cand[0], f.w, &dir.store[from*f.w*filterBlock], nblocks-from, f.strict0); got != want {
							t.Fatalf("trial %d row %d from block %d, %s: avx2 %#x, reference %#x (cand %v, maxima %v)", trial, i, from, dir.name, got, want, cand, coords)
						}
					}
				}
			}
			if head == d && AVX2Available() {
				if got, want := f.dominated(i), refDominated(coords, cand); got != want {
					t.Fatalf("trial %d row %d: filter %v, reference %v (cand %v, maxima %v)", trial, i, got, want, cand, coords)
				}
				// The eviction sweep leaves exactly the maxima the candidate
				// does not dominate (a fresh filter: it compacts the window).
				var want []int
				for w, m := range maxima {
					if !refDominated([][]float64{cand}, coords[w]) {
						want = append(want, m)
					}
				}
				g := buildFilter(vecs, head, true, maxima)
				g.blockDominated(i) // loads the candidate's scores
				g.evict(i)
				if got := slices.Sorted(slices.Values(g.rows)); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
					t.Fatalf("trial %d row %d: eviction keeps %v, reference %v (cand %v, maxima %v)", trial, i, got, want, cand, coords)
				}
				g.release()
			}
		}
		f.release()
	}
}

// TestKernelRuntimeFlag pins the dispatch contract: SetAVX2Enabled
// toggles what new filters capture, never beyond what the build and CPU
// support, and the environment/build legs start with the kernel off.
func TestKernelRuntimeFlag(t *testing.T) {
	prev := SetAVX2Enabled(false)
	defer SetAVX2Enabled(prev)
	if AVX2Enabled() {
		t.Fatal("flag still set after SetAVX2Enabled(false)")
	}
	SetAVX2Enabled(true)
	if AVX2Enabled() != AVX2Available() {
		t.Fatalf("SetAVX2Enabled(true) => enabled %v, want available %v", AVX2Enabled(), AVX2Available())
	}
}

// TestKernelSFSAgreesAcrossPasses runs the full compiled SFS over a
// NaN/±Inf-seasoned chain workload twice — AVX2 kernel on (chain blocks
// where the ±Inf collapse is exact, flat records where it is not) and
// off (flat records throughout) — against the interpreted reference: the
// end-to-end oracle for the comparator dispatch inside sfsCompiled.
func TestKernelSFSAgreesAcrossPasses(t *testing.T) {
	prev := AVX2Enabled()
	defer SetAVX2Enabled(prev)
	rng := rand.New(rand.NewSource(62))
	p := chainProduct3()
	for trial := 0; trial < 20; trial++ {
		rel := infNanFloatRelation(rng, 30+rng.Intn(250))
		want := BMOIndicesMode(p, rel, Naive, EvalInterpreted)
		SetAVX2Enabled(false)
		flat := BMOIndicesMode(p, rel, SFS, EvalCompiled)
		if !sameIndices(flat, want) {
			t.Fatalf("trial %d: flat-kernel SFS %v, interpreted %v", trial, flat, want)
		}
		if AVX2Available() {
			SetAVX2Enabled(true)
			asm := BMOIndicesMode(p, rel, SFS, EvalCompiled)
			if !sameIndices(asm, want) {
				t.Fatalf("trial %d: avx2 SFS %v, interpreted %v", trial, asm, want)
			}
		}
	}
}

// infNanFloatRelation extends the NaN/NULL workload with explicit ±Inf
// scores — the off-scale sentinels the quality layer and NULL scoring
// produce — so the kernel agreement covers the whole special-value
// surface end to end. Column 0 is a row id for cross-shard comparisons.
func infNanFloatRelation(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("F", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "d1", Type: relation.Float},
		relation.Column{Name: "d2", Type: relation.Float},
		relation.Column{Name: "d3", Type: relation.Float},
	))
	val := func() pref.Value {
		switch rng.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return nil
		case 2:
			return math.Inf(1)
		case 3:
			return math.Inf(-1)
		}
		return math.Floor(rng.Float64() * 6)
	}
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Row{i, val(), val(), val()})
	}
	return r
}

// TestKernelShardedAgreesOnInfData drives the ±Inf collapse gate through
// the sharded paths: the cross-shard chain merge and the sharded stream
// must fall back to predicate evaluation — never over-kill — when NULLs
// and infinite domain values collapse to one coordinate, whether they
// share a shard or sit in different shards.
func TestKernelShardedAgreesOnInfData(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p := chainProduct3()
	for trial := 0; trial < 30; trial++ {
		flat := infNanFloatRelation(rng, 20+rng.Intn(130))
		shards := 1 + rng.Intn(6)
		s, err := relation.ShardRelation(flat, shards, relation.ByHash("oid"))
		if err != nil {
			t.Fatal(err)
		}
		want := oidSetFlat(flat, BMOIndicesMode(p, flat, Naive, EvalInterpreted))
		for _, alg := range []Algorithm{Auto, SFS, BNL} {
			got := oidSetSharded(s, shardedBMO(p, s, alg, nil))
			if !sameInts(got, want) {
				t.Fatalf("trial %d: sharded %s over %d shards: got %v want %v", trial, alg, shards, got, want)
			}
		}
		var got []int
		for _, gid := range EvalStreamShardedCtx(context.Background(), p, s, Auto, nil, Robust{}).Collect() {
			got = append(got, s.Row(gid)[0].(int))
		}
		sort.Ints(got)
		if !sameInts(got, want) {
			t.Fatalf("trial %d: sharded stream over %d shards: got %v want %v", trial, shards, got, want)
		}
	}
}
