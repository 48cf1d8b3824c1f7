package store

import (
	"fmt"
	"sync"

	"repro/internal/pref"
)

// Buffer pool: a byte-budgeted cache of verified row pages. The page
// table maps (owner, page index) to a frame; Get pins the frame for
// the duration of the caller's use (release unpins), concurrent
// misses on one page coalesce into a single load, and a clock hand
// sweeps unpinned frames for eviction once the budget is exceeded.
//
// A frame holds a Page — the page's CRC-checked encoded bytes — not
// decoded rows. The page's row-offset table is not the frame's: the
// epoch keeps it, built by the page's first validated load and reused
// by every reload (see Epoch.loadPage), so the budget counts the frame
// bytes alone. Page bytes and tables are pointer-free, so resident pages
// add nothing to the collector's mark work. A reader decodes or copies only
// the row it asked for, out of the frame. Frames are never modified or
// reused, so eviction only forgets the cache's reference: bytes and
// rows already handed to readers stay valid, which is what lets pinned
// snapshots outlive any eviction.

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

// Page is one row page as the pool holds it: the page's encoded bytes
// plus the row-offset table its epoch validated them against. Pages are
// immutable once built.
type Page struct {
	buf   []byte
	offs  []uint32 // offs[r]: where row r starts in buf; offs[rows] == len(buf)
	arity int
}

// indexPage builds the row-offset table of an encoded page holding rows
// rows of the given arity — one offset per row, then the page's length
// — while checkPage validates it. One offset per row (4 bytes, ≈8 % of
// a served Cars row) lets a read find its row's extent without walking
// the rows before it; the table lives on the epoch, outside the pool's
// budget.
func indexPage(buf []byte, rows, arity int) ([]uint32, error) {
	offs := make([]uint32, rows+1)
	if err := checkPage(buf, rows, arity, offs); err != nil {
		return nil, err
	}
	return offs, nil
}

// checkPage validates an encoded page holding rows rows of the given
// arity in one pass over every value's tag and length (valueLen),
// recording where each row starts (and, last, the page's length) in offs
// unless it is nil. A page that ends early, holds an unknown tag or
// carries bytes past its last row is an error, so a malformed page fails
// when it is read, not when some later read reaches the bad row.
func checkPage(buf []byte, rows, arity int, offs []uint32) error {
	off := 0
	for r := 0; r < rows; r++ {
		if offs != nil {
			offs[r] = uint32(off)
		}
		for c := 0; c < arity; c++ {
			n, err := valueLen(buf[off:])
			if err != nil {
				return fmt.Errorf("row %d column %d: %w", r, c, err)
			}
			off += n
		}
	}
	if off != len(buf) {
		return fmt.Errorf("%d bytes past the last of %d rows", len(buf)-off, rows)
	}
	if offs != nil {
		offs[rows] = uint32(off)
	}
	return nil
}

// Bytes returns the heap the frame holds: the page's encoded bytes. The
// pool's budget counts exactly this.
func (pg Page) Bytes() int64 { return int64(cap(pg.buf)) }

// Row decodes row r of the page into freshly allocated values;
// nothing in the result aliases the page.
func (pg Page) Row(r int) ([]pref.Value, error) {
	row, _, err := ReadRow(pg.buf[pg.offs[r]:pg.offs[r+1]], pg.arity)
	return row, err
}

// appendRow copies row r's encoded bytes to dst — one copy, its extent
// read off the offset table — and appends to starts where each of its
// values begins in dst. Every value is split off by valueLen first, so
// what it appends is exactly arity accepted values; on an error dst and
// starts come back as they were.
func (pg Page) appendRow(dst []byte, starts []int, r int) ([]byte, []int, error) {
	row := pg.buf[pg.offs[r]:pg.offs[r+1]]
	base, mark := len(dst), len(starts)
	off := 0
	for c := 0; c < pg.arity; c++ {
		starts = append(starts, base+off)
		n, err := valueLen(row[off:])
		if err != nil {
			return dst, starts[:mark], fmt.Errorf("column %d: %w", c, err)
		}
		off += n
	}
	if off != len(row) {
		return dst, starts[:mark], fmt.Errorf("%d bytes past the row's last value", len(row)-off)
	}
	return append(dst, row...), starts, nil
}

// frame is one resident page.
type frame struct {
	key     PageKey
	page    Page
	pins    int
	ref     bool
	loading chan struct{} // closed once page/err are settled
	err     error
	release func() // unpins the frame; built once, handed to every Get
}

// Pool is a clock-eviction buffer pool over verified row pages.
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
// called; the page itself is immutable and remains valid after release
// even if the frame is later evicted. Concurrent misses on the same key
// run load once. A load that fails or panics leaves nothing behind:
// the frame is dropped and the readers waiting on it get an error (a
// panic then continues up the loading caller's stack), so the next Get
// of that page loads it afresh.
func (p *Pool) Get(key PageKey, load func() (Page, error)) (page Page, release func(), err error) {
	p.mu.Lock()
	if f, ok := p.frames[key]; ok {
		f.pins++
		f.ref = true
		p.hits++
		p.mu.Unlock()
		<-f.loading
		if f.err != nil {
			p.unpin(f)
			return Page{}, nil, f.err
		}
		return f.page, f.release, nil
	}
	f := &frame{key: key, pins: 1, ref: true, loading: make(chan struct{})}
	f.release = func() { p.unpin(f) }
	p.frames[key] = f
	p.misses++
	p.mu.Unlock()

	settled := false
	defer func() {
		if !settled {
			p.drop(f, fmt.Errorf("store: loading page %d panicked", key.Page))
		}
	}()
	page, err = load()
	settled = true
	if err != nil {
		p.drop(f, err)
		return Page{}, nil, err
	}
	p.mu.Lock()
	f.page = page
	p.used += page.Bytes()
	p.ring = append(p.ring, f)
	close(f.loading)
	p.evictLocked()
	p.mu.Unlock()
	return page, f.release, nil
}

// drop settles a frame whose load failed: waiters see err, the loader's
// pin is released and the key leaves the table.
func (p *Pool) drop(f *frame, err error) {
	p.mu.Lock()
	f.err = err
	f.pins--
	delete(p.frames, f.key)
	close(f.loading)
	p.mu.Unlock()
}

// Resident returns the page at key when the pool already holds it,
// without touching the pool's state: no pin, no reference bit, no
// counter, and above all no admission on a miss. Sequential scans (a
// checkpoint rewriting a whole shard, an interpreted full scan) read
// through it, so streaming every page of one table past the pool cannot
// evict the point-read working set of another.
func (p *Pool) Resident(key PageKey) (Page, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[key]
	if !ok {
		return Page{}, false
	}
	select {
	case <-f.loading:
		return f.page, f.err == nil
	default:
		return Page{}, false // still loading for someone else: read our own copy
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
		delete(p.frames, f.key)
		p.used -= f.page.Bytes()
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
			delete(p.frames, f.key)
			p.used -= f.page.Bytes()
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
