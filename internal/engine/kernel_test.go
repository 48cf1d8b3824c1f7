package engine

import (
	"math"
	"math/rand"
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

// buildFilter assembles a chainFilter directly over synthetic coordinate
// vectors (no compiled form needed — the passes only read vecs and the
// blocked store) and confirms the given rows as maxima.
func buildFilter(vecs [][]float64, maxima []int) *chainFilter {
	f := &chainFilter{d: len(vecs), vecs: vecs, cand: make([]float64, len(vecs))}
	for _, i := range maxima {
		f.add(i)
	}
	return f
}

// dominatedMasked is the portable model of the assembly kernel, its
// oracle on every build: the blocked bitmask pass over the chain filter's
// store, filterBlock maxima per iteration, one dimension at a time across
// the block, with ≥ and > mask accumulation (NaN pad lanes die on their
// first dimension, so full blocks need no tail handling).
func (f *chainFilter) dominatedMasked(i int) bool {
	nblocks := (f.n + filterBlock - 1) / filterBlock
	for b := 0; b < nblocks; b++ {
		base := b * f.d * filterBlock
		alive := uint32(1)<<filterBlock - 1
		var strict uint32
		for k := 0; k < f.d && alive != 0; k++ {
			cv := f.vecs[k][i]
			col := f.blocks[base+k*filterBlock : base+(k+1)*filterBlock]
			var ge, gt uint32
			for lane, mv := range col {
				if mv >= cv {
					ge |= 1 << lane
				}
				if mv > cv {
					gt |= 1 << lane
				}
			}
			alive &= ge
			strict |= gt
		}
		if alive&strict != 0 {
			return true
		}
	}
	return false
}

// TestKernelDominanceProperty holds the blocked passes — the portable
// masked model, and the AVX2 kernel when this machine has it — to the
// reference contract on NaN/±Inf/signed-zero-heavy inputs, across
// dimensions 1..6 and maxima counts that straddle block boundaries (0,
// partial, full, many blocks).
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
		f := buildFilter(vecs, maxima)
		coords := make([][]float64, nMax)
		for w, i := range maxima {
			coords[w] = make([]float64, d)
			for k := 0; k < d; k++ {
				coords[w][k] = vecs[k][i]
			}
		}
		cand := make([]float64, d)
		for i := 0; i < n; i++ {
			for k := 0; k < d; k++ {
				cand[k] = vecs[k][i]
			}
			want := refDominated(coords, cand)
			if got := f.dominatedMasked(i); got != want {
				t.Fatalf("trial %d row %d: masked %v, reference %v (cand %v, maxima %v)", trial, i, got, want, cand, coords)
			}
			if AVX2Available() {
				if got := f.dominated(i); got != want {
					t.Fatalf("trial %d row %d: avx2 %v, reference %v (cand %v, maxima %v)", trial, i, got, want, cand, coords)
				}
			}
		}
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
		for _, alg := range []Algorithm{Auto, SFS, DNC} {
			got := oidSetSharded(s, BMOShardedOn(p, s, alg, nil))
			if !sameInts(got, want) {
				t.Fatalf("trial %d: sharded %s over %d shards: got %v want %v", trial, alg, shards, got, want)
			}
		}
		var got []int
		for _, gid := range EvalStreamSharded(p, s, Auto).Collect() {
			got = append(got, s.Row(gid)[0].(int))
		}
		sort.Ints(got)
		if !sameInts(got, want) {
			t.Fatalf("trial %d: sharded stream over %d shards: got %v want %v", trial, shards, got, want)
		}
	}
}
