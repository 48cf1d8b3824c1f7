package relation

import (
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"
	"weak"

	"repro/internal/pref"
)

// TestGenerationFitsItsSizeClass: every Insert allocates a generation, so
// it must stay inside its 144-byte size class — eight more bytes per
// generation measured +8 % on a durable table's set-up of 20 000 inserts.
// The memo takes one pointer for everything derived from the rows.
func TestGenerationFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(generation{}); n > 144 {
		t.Fatalf("generation is %d bytes, past its 144-byte size class", n)
	}
}

// memoOf returns a fresh generation's memo handle whose bound holds
// exactly capacity entries of entryBytes each.
func memoOf(capacity int) (h Memo, entryBytes int) {
	return Memo{&generation{}}, memoBytes / capacity
}

// TestReusedEntrySurvivesOneShotFlood: an entry some Get has served must
// outlive any number of never-read entries pushed through a full memo —
// one-shot statements evict each other's leftovers, not the hot entry.
func TestReusedEntrySurvivesOneShotFlood(t *testing.T) {
	h, size := memoOf(8)
	h.Put("hot", 42, size)
	if _, ok := h.Get("hot"); !ok {
		t.Fatal("hot entry missing right after Put")
	}
	for i := 0; i < 1000; i++ {
		h.Put("one-shot#"+strconv.Itoa(i), i, size)
		if n := h.Len(); n > 8 {
			t.Fatalf("memo grew to %d entries past its bound", n)
		}
	}
	if v, ok := h.Peek("hot"); !ok || v != 42 {
		t.Fatal("a reused entry was evicted by never-read ones")
	}
	// With every entry reused the memo still makes room.
	small, size := memoOf(2)
	for i := 0; i < 2; i++ {
		k := strconv.Itoa(i)
		small.Put(k, i, size)
		small.Get(k)
	}
	small.Put("new", 9, size)
	if _, ok := small.Peek("new"); !ok || small.Len() != 2 {
		t.Fatalf("full memo of reused entries must still admit a newcomer (len %d)", small.Len())
	}
	// An entry larger than the whole bound is not kept.
	small.Put("huge", 0, memoBytes+1)
	if _, ok := small.Peek("huge"); ok || small.Len() != 2 {
		t.Fatal("an entry past the bound was kept")
	}
}

// TestAlternatingKeysInFullWarmCache: a memo full of entries that have
// all been hit must still serve two keys that arrive alternately. With
// never-reused-first admission alone each newcomer evicted the previous
// one — 0 hits in 20 lookups.
func TestAlternatingKeysInFullWarmCache(t *testing.T) {
	h, size := memoOf(8)
	for i := 0; i < 8; i++ {
		k := "reused#" + strconv.Itoa(i)
		h.Put(k, i, size)
		h.Get(k)
	}
	hits := 0
	for i := 0; i < 20; i++ {
		k := "A"
		if i%2 == 1 {
			k = "B"
		}
		if _, ok := h.Get(k); ok {
			hits++
		} else {
			h.Put(k, i, size)
		}
		if n := h.Len(); n > 8 {
			t.Fatalf("memo grew to %d entries past its bound", n)
		}
	}
	if hits != 18 {
		t.Fatalf("alternating keys in a full warm memo: %d hits of 20 lookups, want 18 (each key misses once)", hits)
	}
}

// TestAdmissionOrderUnderFlood pins the whole eviction order at once: a
// full memo holding reused and never-read entries takes a flood of
// one-shot Puts. Every reused entry outlives the flood, the never-read
// ones leave oldest first, and the memo never exceeds its bound.
func TestAdmissionOrderUnderFlood(t *testing.T) {
	const capacity = 32
	h, size := memoOf(capacity)
	var hot []string
	for i := 0; i < 8; i++ {
		k := "hot#" + strconv.Itoa(i)
		h.Put(k, i, size)
		h.Get(k)
		hot = append(hot, k)
	}
	var cold []string
	for i := 0; i < capacity-8; i++ {
		k := "cold#" + strconv.Itoa(i)
		h.Put(k, i, size)
		cold = append(cold, k)
	}
	if n := h.Len(); n != capacity {
		t.Fatalf("setup: len %d, want %d", n, capacity)
	}
	has := func(k string) bool { _, ok := h.Peek(k); return ok }
	n := 0
	for i := range cold {
		h.Put("flood#"+strconv.Itoa(n), n, size)
		n++
		if has(cold[i]) || (i+1 < len(cold) && !has(cold[i+1])) {
			t.Fatalf("never-read entries must leave oldest first (at cold#%d)", i)
		}
	}
	for i := 0; i < 10*capacity; i++ {
		h.Put("flood#"+strconv.Itoa(n), n, size)
		n++
		if l := h.Len(); l > capacity {
			t.Fatalf("memo grew to %d past its bound of %d entries", l, capacity)
		}
	}
	for _, k := range hot {
		if !has(k) {
			t.Fatalf("reused entry %v did not survive the one-shot flood", k)
		}
	}
	// A second Put of a held key keeps the held value and never evicts.
	if v := h.Put(hot[0], 99, size); v != 0 {
		t.Fatalf("a second Put returned %v, want the held 0", v)
	}
	if v, _ := h.Peek(hot[0]); v != 0 || h.Len() != capacity {
		t.Fatalf("second Put: value %v len %d", v, h.Len())
	}
}

// TestPutAtCapacityIsFlat: admission into a full memo pops its queues and
// never walks the map, so it costs the same at 128 and at 4096 entries.
func TestPutAtCapacityIsFlat(t *testing.T) {
	const puts = 20000
	perOp := func(capacity int) time.Duration {
		keys := make([]string, capacity+puts)
		for i := range keys {
			keys[i] = "t" + strconv.Itoa(i)
		}
		best := time.Duration(0)
		for try := 0; try < 5; try++ {
			h, size := memoOf(capacity)
			for _, k := range keys[:capacity] {
				h.Put(k, 0, size)
			}
			start := time.Now()
			for _, k := range keys[capacity:] {
				h.Put(k, 0, size)
			}
			if d := time.Since(start) / puts; best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	small, large := perOp(128), perOp(4096)
	// +100 ns: a sub-microsecond operation jitters by a cache miss.
	if large > 2*small+100*time.Nanosecond {
		t.Fatalf("Put at capacity: %v at 128 entries, %v at 4096 — admission walks the memo", small, large)
	}
}

// maxCarrier is a Carrier over the first column: it keeps the largest
// value seen, as a result entry keeps its maxima.
type maxCarrier struct{ max int64 }

func (c *maxCarrier) Carry(_ *Relation, t pref.Tuple, _ int) (any, int) {
	v, _ := t.Get("id")
	if id := v.(int64); id > c.max {
		return &maxCarrier{max: id}, 8
	}
	return c, 8
}

// TestInsertCarriesOnlyCarriers: an Insert builds its successor's memo
// from the predecessor's — a Carrier entry is carried (keeping its served
// mark), every other entry is dropped — and the superseded generation
// frees what it alone held once nothing pins it. A snapshot and the live
// relation at one version read one memo; SortBy starts empty.
func TestInsertCarriesOnlyCarriers(t *testing.T) {
	r := statsFixture()
	snap := r.Snapshot()
	r.Memo().Put("max", &maxCarrier{max: 4}, 8)
	vec := make([]float64, 1024)
	r.Memo().Put("vec", vec, 8*len(vec))
	if _, ok := snap.Memo().Get("max"); !ok {
		t.Fatal("a snapshot must read the live relation's memo at one version")
	}
	held := HeldCarriers()
	dropped := weak.Make(&vec[0])
	vec = nil
	r.MustInsert(Row{int64(9), 0.5, "red"})
	v, ok := r.Memo().Peek("max")
	if !ok || v.(*maxCarrier).max != 9 {
		t.Fatalf("the successor must hold the carried entry, got %v", v)
	}
	if _, ok := r.Memo().Peek("vec"); ok {
		t.Fatal("an entry that is no Carrier must not be carried")
	}
	if HeldCarriers() != held+1 {
		t.Fatalf("HeldCarriers %d, want %d with the carried entry", HeldCarriers(), held+1)
	}
	// A carried entry keeps its served mark: it outlives a flood.
	for i := 0; i < 2*coldShare; i++ {
		r.Memo().Put("flood#"+strconv.Itoa(i), i, memoBytes/coldShare)
	}
	if _, ok := r.Memo().Peek("max"); !ok {
		t.Fatal("the carried entry lost its served mark")
	}
	if _, ok := snap.Memo().Peek("vec"); !ok {
		t.Fatal("the pinned generation lost its own entry")
	}
	collect()
	if dropped.Value() == nil {
		t.Fatal("the superseded generation's entry was freed while a snapshot pins it")
	}
	runtime.KeepAlive(snap)
	snap = nil
	collect()
	if dropped.Value() != nil {
		t.Error("the superseded generation's entry outlived the last snapshot of its generation")
	}
	deadline := time.Now().Add(5 * time.Second)
	for HeldCarriers() > held && time.Now().Before(deadline) {
		collect() // the collected memo returns its carrier through a cleanup
	}
	if HeldCarriers() != held {
		t.Errorf("HeldCarriers %d after the superseded memo was collected, want %d", HeldCarriers(), held)
	}
	r.SortBy(func(a, b pref.Tuple) bool { return false })
	if _, ok := r.Memo().Peek("max"); ok {
		t.Fatal("SortBy's generation must start with an empty memo")
	}
}

// collect runs enough collections for weak pointers to clear.
func collect() {
	for range 3 {
		runtime.GC()
	}
}

// TestPersistCheckpointKeepsMemo: a checkpoint publishes a same-version
// generation over the new epoch, which takes the memo as it is — entries
// that are no Carrier too.
func TestPersistCheckpointKeepsMemo(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := st.CreateTable("t", persistSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Insert(persistRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Memo().Put("k", "v", 8)
	g := r.cur()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if r.cur() == g || r.cur().base == nil {
		t.Fatal("test premise: the checkpoint published no generation over an epoch")
	}
	if v, ok := r.Memo().Get("k"); !ok || v != "v" {
		t.Fatal("the checkpoint's generation dropped the memo")
	}
}
