package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"repro/internal/pref"
)

// Segment epochs: one immutable on-disk image of a shard's contents.
// An epoch directory holds the authoritative row store (rows.pag —
// fixed-size pages of tag-encoded rows, each page CRC-framed in the
// epoch metadata, verified and indexed when the buffer pool loads it and
// decoded one row at a time by the readers that ask for rows) plus
// derived columnar segment files per column: the float64 scale image
// and its on-scale mask for the linearly ordered columns, and the
// equality-code dictionary image for every column. Column segments are
// mmap'd read-only and served as typed slices with zero copies, so the
// compiled evaluator binds against them exactly as it binds against
// heap arrays — the kernel's page cache takes the role RAM residency
// plays for in-memory relations. Epochs are written whole and then
// published by a shard-level metadata swap; nothing in an epoch
// directory is ever modified in place.

// Epoch file names.
const (
	epochMetaFile = "epoch.json"
	epochRowsFile = "rows.pag"
)

// FloatSeg is the persisted image of one float column: the scale
// values plus the on-scale mask, as built by the relation layer.
type FloatSeg struct {
	Vals []float64
	Mask []bool
}

// epochPage locates one row page inside rows.pag.
type epochPage struct {
	Rows int    `json:"rows"`
	Off  int64  `json:"off"`
	Len  int32  `json:"len"`
	CRC  uint32 `json:"crc"`
}

// epochMeta is the epoch.json document.
type epochMeta struct {
	N     int         `json:"n"`
	Arity int         `json:"arity"`
	Pages []epochPage `json:"pages"`
	// Floats and Eqs list the column indices with persisted segments.
	Floats []int `json:"floats"`
	Eqs    []int `json:"eqs"`
}

// PageError is a fault in an epoch's row store: a page that could not
// be read, whose checksum does not verify or whose encoding does not
// parse — or, found at open, a page directory that does not describe
// rows.pag. Page is the page index, or -1 when the fault is not in one
// page.
type PageError struct {
	Epoch string // the epoch directory
	Page  int
	Err   error
}

// Error names the epoch and the page.
func (e *PageError) Error() string {
	if e.Page < 0 {
		return fmt.Sprintf("store: epoch %s: %v", e.Epoch, e.Err)
	}
	return fmt.Sprintf("store: epoch %s page %d: %v", e.Epoch, e.Page, e.Err)
}

// Unwrap returns the underlying fault.
func (e *PageError) Unwrap() error { return e.Err }

// checkPages validates the page directory against the size of rows.pag
// before anything is read through it: the pages tile the file from
// offset 0 without gaps or overlap and end inside it, each holds at
// least one row and at least one byte per value (every value starts
// with a tag byte), and their rows sum to N. A damaged or hand-edited
// epoch.json therefore fails at open, as a *PageError, instead of
// driving a read or an allocation from a bogus length later.
func (m *epochMeta) checkPages(dir string, size int64) error {
	bad := func(p int, format string, args ...any) error {
		return &PageError{Epoch: dir, Page: p, Err: fmt.Errorf("page directory: "+format, args...)}
	}
	if m.N < 0 || m.Arity < 0 {
		return bad(-1, "%d rows of %d columns", m.N, m.Arity)
	}
	var off int64
	rows := 0
	for p, pg := range m.Pages {
		switch {
		case pg.Len <= 0:
			return bad(p, "length %d", pg.Len)
		case pg.Off != off:
			return bad(p, "offset %d, want %d (pages must be contiguous)", pg.Off, off)
		case pg.Off+int64(pg.Len) > size:
			return bad(p, "bytes [%d,%d) past the end of %s (%d bytes)", pg.Off, pg.Off+int64(pg.Len), epochRowsFile, size)
		case pg.Rows < 1 || pg.Rows > int(pg.Len)/max(m.Arity, 1):
			return bad(p, "%d rows of %d columns in %d bytes", pg.Rows, m.Arity, pg.Len)
		}
		off += int64(pg.Len)
		rows += pg.Rows
	}
	if rows != m.N {
		return bad(-1, "pages cover %d of %d rows", rows, m.N)
	}
	return nil
}

// WriteEpoch materializes one immutable epoch under dir (which must
// not exist yet): n rows of the given arity served by rowAt, the float
// segments and equality-code segments keyed by column index, and row
// pages of roughly pageBytes encoded bytes each. Every file is synced
// before WriteEpoch returns, so a subsequent metadata swap publishes a
// fully durable image.
func WriteEpoch(dir string, arity, n int, rowAt func(int) []pref.Value, floats map[int]FloatSeg, eqs map[int][]uint32, pageBytes int) error {
	if pageBytes < 1024 {
		pageBytes = 64 << 10
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := epochMeta{N: n, Arity: arity}

	rf, err := os.Create(filepath.Join(dir, epochRowsFile))
	if err != nil {
		return err
	}
	defer rf.Close()
	var off int64
	buf := make([]byte, 0, pageBytes+4096)
	pageRows := 0
	flush := func() error {
		if pageRows == 0 {
			return nil
		}
		if _, err := rf.Write(buf); err != nil {
			return err
		}
		meta.Pages = append(meta.Pages, epochPage{
			Rows: pageRows, Off: off, Len: int32(len(buf)), CRC: crc32.ChecksumIEEE(buf),
		})
		off += int64(len(buf))
		buf = buf[:0]
		pageRows = 0
		return nil
	}
	for i := 0; i < n; i++ {
		if buf, err = AppendRow(buf, rowAt(i)); err != nil {
			return err
		}
		pageRows++
		if len(buf) >= pageBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := rf.Sync(); err != nil {
		return err
	}

	for ci, seg := range floats {
		if len(seg.Vals) != n || len(seg.Mask) != n {
			return fmt.Errorf("store: float segment %d has %d/%d entries for %d rows", ci, len(seg.Vals), len(seg.Mask), n)
		}
		fbuf := make([]byte, 0, 8*n)
		mbuf := make([]byte, n)
		for i, v := range seg.Vals {
			fbuf = binary.LittleEndian.AppendUint64(fbuf, math.Float64bits(v))
			if seg.Mask[i] {
				mbuf[i] = 1
			}
		}
		if err := writeSynced(filepath.Join(dir, fmt.Sprintf("col_%d.f64", ci)), fbuf); err != nil {
			return err
		}
		if err := writeSynced(filepath.Join(dir, fmt.Sprintf("col_%d.msk", ci)), mbuf); err != nil {
			return err
		}
		meta.Floats = append(meta.Floats, ci)
	}
	for ci, codes := range eqs {
		if len(codes) != n {
			return fmt.Errorf("store: eq segment %d has %d entries for %d rows", ci, len(codes), n)
		}
		ebuf := make([]byte, 0, 4*n)
		for _, c := range codes {
			ebuf = binary.LittleEndian.AppendUint32(ebuf, c)
		}
		if err := writeSynced(filepath.Join(dir, fmt.Sprintf("col_%d.eq", ci)), ebuf); err != nil {
			return err
		}
		meta.Eqs = append(meta.Eqs, ci)
	}
	sort.Ints(meta.Floats)
	sort.Ints(meta.Eqs)

	doc, err := json.Marshal(&meta)
	if err != nil {
		return err
	}
	if err := writeSynced(filepath.Join(dir, epochMetaFile), doc); err != nil {
		return err
	}
	return syncDir(dir)
}

// writeSynced writes data to path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so freshly created entries are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// Epoch is one opened on-disk shard image: the row-page file (read on
// demand through a Pool) plus the typed views of the columnar
// segments.
type Epoch struct {
	dir      string
	n        int
	arity    int
	pages    []epochPage
	rowStart []int // prefix sums: rowStart[p] = first row of page p
	rowsFile *os.File
	floats   map[int]FloatSeg
	eqs      map[int][]uint32
	maps     [][]byte // live mmap regions, released by Close
	segBytes int64
}

// OpenEpoch opens the epoch at dir. With useMMap set (and on a
// platform that supports it) the column segments are served as typed
// views over shared read-only mappings; otherwise they are decoded
// into the heap. Row pages are read on demand, through the page
// directory checkPages has validated against rows.pag here.
func OpenEpoch(dir string, useMMap bool) (*Epoch, error) {
	doc, err := os.ReadFile(filepath.Join(dir, epochMetaFile))
	if err != nil {
		return nil, err
	}
	var meta epochMeta
	if err := json.Unmarshal(doc, &meta); err != nil {
		return nil, fmt.Errorf("store: epoch %s: bad metadata: %w", dir, err)
	}
	e := &Epoch{
		dir: dir, n: meta.N, arity: meta.Arity, pages: meta.Pages,
		floats: make(map[int]FloatSeg, len(meta.Floats)),
		eqs:    make(map[int][]uint32, len(meta.Eqs)),
	}
	e.rowsFile, err = os.Open(filepath.Join(dir, epochRowsFile))
	if err != nil {
		return nil, err
	}
	fi, err := e.rowsFile.Stat()
	if err == nil {
		err = meta.checkPages(dir, fi.Size())
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	e.segBytes += fi.Size()
	e.rowStart = make([]int, len(meta.Pages)+1)
	for p, pg := range meta.Pages {
		e.rowStart[p+1] = e.rowStart[p] + pg.Rows
	}
	mm := useMMap && mmapSupported
	for _, ci := range meta.Floats {
		vals, valsMap, err := e.openBytes(fmt.Sprintf("col_%d.f64", ci), 8*meta.N, mm)
		if err != nil {
			e.Close()
			return nil, err
		}
		mask, maskMap, err := e.openBytes(fmt.Sprintf("col_%d.msk", ci), meta.N, mm)
		if err != nil {
			e.Close()
			return nil, err
		}
		seg := FloatSeg{}
		if valsMap != nil {
			seg.Vals = f64View(vals, meta.N)
		} else {
			seg.Vals = decodeF64(vals, meta.N)
		}
		if maskMap != nil {
			seg.Mask = boolView(mask, meta.N)
		} else {
			seg.Mask = decodeBools(mask, meta.N)
		}
		e.floats[ci] = seg
	}
	for _, ci := range meta.Eqs {
		raw, rawMap, err := e.openBytes(fmt.Sprintf("col_%d.eq", ci), 4*meta.N, mm)
		if err != nil {
			e.Close()
			return nil, err
		}
		if rawMap != nil {
			e.eqs[ci] = u32View(raw, meta.N)
		} else {
			e.eqs[ci] = decodeU32(raw, meta.N)
		}
	}
	return e, nil
}

// openBytes opens one segment file of the expected size, either
// mapping it (returning the mapping for Close to release) or reading
// it whole.
func (e *Epoch) openBytes(name string, want int, mm bool) (data []byte, mapped []byte, err error) {
	path := filepath.Join(e.dir, name)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if fi.Size() != int64(want) {
		return nil, nil, fmt.Errorf("store: segment %s is %d bytes, want %d", path, fi.Size(), want)
	}
	e.segBytes += fi.Size()
	if want == 0 {
		return nil, nil, nil
	}
	if mm {
		b, err := mapFile(f, want)
		if err != nil {
			return nil, nil, err
		}
		e.maps = append(e.maps, b)
		return b, b, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return b, nil, nil
}

// f64View reinterprets a page-aligned little-endian mapping as a
// float64 slice without copying.
func f64View(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

// boolView reinterprets a 0/1 byte mapping as a bool slice.
func boolView(b []byte, n int) []bool {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), n)
}

// u32View reinterprets a page-aligned little-endian mapping as a
// uint32 slice without copying.
func u32View(b []byte, n int) []uint32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// decodeF64 decodes a little-endian float64 segment into the heap.
func decodeF64(b []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// decodeBools decodes a 0/1 byte segment into the heap.
func decodeBools(b []byte, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = b[i] != 0
	}
	return out
}

// decodeU32 decodes a little-endian uint32 segment into the heap.
func decodeU32(b []byte, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// N returns the epoch's row count.
func (e *Epoch) N() int { return e.n }

// Arity returns the epoch's column count.
func (e *Epoch) Arity() int { return e.arity }

// SegmentBytes returns the epoch's total on-disk byte size.
func (e *Epoch) SegmentBytes() int64 { return e.segBytes }

// Floats returns the typed view of column ci's float segment.
func (e *Epoch) Floats(ci int) (vals []float64, mask []bool, ok bool) {
	seg, ok := e.floats[ci]
	return seg.Vals, seg.Mask, ok
}

// Eq returns the typed view of column ci's equality-code segment.
func (e *Epoch) Eq(ci int) ([]uint32, bool) {
	codes, ok := e.eqs[ci]
	return codes, ok
}

// loadPage reads one row page from rows.pag, verifies its checksum and
// indexes its rows (indexPage); no value is decoded.
func (e *Epoch) loadPage(p int) (Page, error) {
	pg := e.pages[p]
	buf := make([]byte, pg.Len)
	if _, err := e.rowsFile.ReadAt(buf, pg.Off); err != nil {
		return Page{}, &PageError{Epoch: e.dir, Page: p, Err: err}
	}
	if crc32.ChecksumIEEE(buf) != pg.CRC {
		return Page{}, &PageError{Epoch: e.dir, Page: p, Err: errors.New("checksum mismatch")}
	}
	page, err := indexPage(buf, pg.Rows, e.arity)
	if err != nil {
		return Page{}, &PageError{Epoch: e.dir, Page: p, Err: err}
	}
	return page, nil
}

// Row returns row i, decoding just that row out of its page, which it
// reads through the pool. The returned slice is fresh heap data that
// shares nothing with the pool's frame.
func (e *Epoch) Row(i int, pool *Pool) ([]pref.Value, error) {
	if i < 0 || i >= e.n {
		return nil, fmt.Errorf("store: epoch %s: row %d out of range [0,%d)", e.dir, i, e.n)
	}
	p := sort.SearchInts(e.rowStart[1:], i+1)
	page, release, err := pool.Get(PageKey{Owner: e, Page: p}, func() (Page, error) {
		return e.loadPage(p)
	})
	if err != nil {
		return nil, err
	}
	row, err := page.Row(i - e.rowStart[p])
	release()
	if err != nil {
		return nil, &PageError{Epoch: e.dir, Page: p, Err: err}
	}
	return row, nil
}

// AppendAllRows appends every row of the epoch to dst in order, page by
// page: pages the pool already holds are decoded from their frames, the
// others are read for this scan alone and never admitted — a full scan
// (every checkpoint runs one) must not flush the store-wide pool.
func (e *Epoch) AppendAllRows(dst [][]pref.Value, pool *Pool) ([][]pref.Value, error) {
	for p := range e.pages {
		page, ok := pool.Resident(PageKey{Owner: e, Page: p})
		if !ok {
			var err error
			if page, err = e.loadPage(p); err != nil {
				return nil, err
			}
		}
		rest := page.buf
		for r := 0; r < page.rows; r++ {
			var row []pref.Value
			var err error
			if row, rest, err = ReadRow(rest, e.arity); err != nil {
				return nil, &PageError{Epoch: e.dir, Page: p, Err: err}
			}
			dst = append(dst, row)
		}
	}
	return dst, nil
}

// Close releases the epoch's mappings and file handles. It must only
// run when no reader can touch the typed views again — the store calls
// it at shutdown, never on checkpoint (superseded epochs stay mapped
// for pinned snapshots; see the package comment on paging cost).
func (e *Epoch) Close() error {
	var first error
	for _, m := range e.maps {
		if err := unmapFile(m); err != nil && first == nil {
			first = err
		}
	}
	e.maps = nil
	if e.rowsFile != nil {
		if err := e.rowsFile.Close(); err != nil && first == nil {
			first = err
		}
		e.rowsFile = nil
	}
	return first
}
