package store

import (
	"sync"

	"repro/internal/pref"
)

// Buffer pool: a byte-budgeted cache of decoded row pages. The page
// table maps (owner, page index) to a frame; Get pins the frame for
// the duration of the caller's use (release unpins), concurrent
// misses on one page coalesce into a single load, and a clock hand
// sweeps unpinned frames for eviction once the budget is exceeded.
// Frames hold decoded rows — plain heap values — so eviction only
// forgets the cache's reference: rows already handed to readers stay
// valid, which is what lets pinned snapshots outlive any eviction.

// PageKey identifies one cached page: the owning file object (an
// *Epoch, compared by identity) plus the page index within it.
type PageKey struct {
	Owner any
	Page  int
}

// PoolStats is a point-in-time counter snapshot of a pool.
type PoolStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Resident      int
	ResidentBytes int64
	CapBytes      int64
}

// frame is one resident page.
type frame struct {
	key     PageKey
	rows    [][]pref.Value
	bytes   int64
	pins    int
	ref     bool
	loading chan struct{} // closed once rows/err are settled
	err     error
	gone    bool // evicted or failed; no longer in the table
}

// Pool is a clock-eviction buffer pool over decoded row pages.
type Pool struct {
	mu        sync.Mutex
	capBytes  int64
	used      int64
	frames    map[PageKey]*frame
	ring      []*frame
	hand      int
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewPool creates a pool with the given byte capacity. A single page
// larger than the whole budget is still admitted (the pool would be
// useless for it otherwise); the budget is enforced by evicting other
// unpinned pages.
func NewPool(capBytes int64) *Pool {
	if capBytes < 1 {
		capBytes = 1
	}
	return &Pool{capBytes: capBytes, frames: make(map[PageKey]*frame)}
}

// Get returns the page at key, loading it through load on a miss. The
// returned frame is pinned — immune to eviction — until release is
// called; the rows themselves are immutable heap data and remain valid
// after release even if the frame is later evicted. Concurrent misses
// on the same key run load once.
func (p *Pool) Get(key PageKey, load func() (rows [][]pref.Value, bytes int64, err error)) (rows [][]pref.Value, release func(), err error) {
	p.mu.Lock()
	if f, ok := p.frames[key]; ok {
		f.pins++
		f.ref = true
		p.hits++
		p.mu.Unlock()
		<-f.loading
		if f.err != nil {
			p.mu.Lock()
			f.pins--
			p.mu.Unlock()
			return nil, nil, f.err
		}
		return f.rows, func() { p.unpin(f) }, nil
	}
	f := &frame{key: key, pins: 1, ref: true, loading: make(chan struct{})}
	p.frames[key] = f
	p.misses++
	p.mu.Unlock()

	rows, bytes, err := load()
	p.mu.Lock()
	if err != nil {
		f.err = err
		f.gone = true
		f.pins--
		delete(p.frames, key)
		close(f.loading)
		p.mu.Unlock()
		return nil, nil, err
	}
	f.rows, f.bytes = rows, bytes
	p.used += bytes
	p.ring = append(p.ring, f)
	close(f.loading)
	p.evictLocked()
	p.mu.Unlock()
	return rows, func() { p.unpin(f) }, nil
}

// Resident returns the rows of the page at key when the pool already
// holds them, without touching the pool's state: no pin, no reference
// bit, no counter, and above all no admission on a miss. Sequential
// scans (a checkpoint rewriting a whole shard, an interpreted full scan)
// read through it, so streaming every page of one table past the pool
// cannot evict the point-read working set of another.
func (p *Pool) Resident(key PageKey) ([][]pref.Value, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[key]
	if !ok {
		return nil, false
	}
	select {
	case <-f.loading:
		return f.rows, f.err == nil
	default:
		return nil, false // still loading for someone else: decode our own copy
	}
}

// unpin releases one pin on a frame.
func (p *Pool) unpin(f *frame) {
	p.mu.Lock()
	f.pins--
	p.mu.Unlock()
}

// evictLocked sweeps the clock hand until the pool is back under
// budget or every frame is pinned/referenced beyond reclaim. Each
// frame gets one second chance (its ref bit); two full laps without an
// eviction means everything left is pinned, and the pool runs over
// budget rather than blocking.
func (p *Pool) evictLocked() {
	if len(p.ring) == 0 {
		return
	}
	scanned := 0
	for p.used > p.capBytes && scanned < 2*len(p.ring) {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		f := p.ring[p.hand]
		if f.pins > 0 {
			p.hand++
			scanned++
			continue
		}
		if f.ref {
			f.ref = false
			p.hand++
			scanned++
			continue
		}
		// Evict: drop from table and ring; the hand stays put (the
		// swapped-in tail frame takes this slot).
		f.gone = true
		delete(p.frames, f.key)
		p.used -= f.bytes
		p.evictions++
		last := len(p.ring) - 1
		p.ring[p.hand] = p.ring[last]
		p.ring = p.ring[:last]
		scanned = 0
		if len(p.ring) == 0 {
			return
		}
	}
}

// InvalidateOwner drops every unpinned resident page of the given
// owner; Close paths use it so a retired epoch's pages free their
// budget immediately instead of waiting for the clock.
func (p *Pool) InvalidateOwner(owner any) {
	p.mu.Lock()
	kept := p.ring[:0]
	for _, f := range p.ring {
		if f.key.Owner == owner && f.pins == 0 {
			f.gone = true
			delete(p.frames, f.key)
			p.used -= f.bytes
			p.evictions++
			continue
		}
		kept = append(kept, f)
	}
	p.ring = kept
	p.hand = 0
	p.mu.Unlock()
}

// Stats returns the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Hits:          p.hits,
		Misses:        p.misses,
		Evictions:     p.evictions,
		Resident:      len(p.ring),
		ResidentBytes: p.used,
		CapBytes:      p.capBytes,
	}
}
