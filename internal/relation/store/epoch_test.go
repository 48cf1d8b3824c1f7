package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/pref"
)

// TestEpochReloadReusesTable: a page is validated by its first load
// only; reloads after eviction verify the checksum and reuse the
// epoch's row-offset table, and serve the same rows.
func TestEpochReloadReusesTable(t *testing.T) {
	const n, arity = 300, 3
	rows := edgeRows(n, arity)
	e := writeEdgeEpoch(t, filepath.Join(t.TempDir(), "ep1"), rows, arity)
	pool := NewPool(1) // one frame: every page change evicts
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			got, err := e.Row(i, pool)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rowBytes(t, got), rowBytes(t, rows[i])) {
				t.Fatalf("pass %d: Row(%d) = %v, want %v", pass, i, got, rows[i])
			}
		}
	}
	pages := uint64(len(e.pages))
	if got := e.Validations(); got != pages {
		t.Fatalf("%d validations over three passes of %d pages, want one per page", got, pages)
	}
	if st := pool.Stats(); st.Misses != 3*pages {
		t.Fatalf("want every pass to reload every page: %+v", st)
	}
	if want := 4 * int64(n+len(e.pages)); e.TableBytes() != want {
		t.Fatalf("table bytes %d, want %d (one offset per row and per page)", e.TableBytes(), want)
	}
}

// TestEpochRewrittenPageFailsReload: a page rewritten on disk after its
// first validated load fails its reload with a checksum *PageError —
// for a decoded row and for a copied one — instead of being read
// through the table its old bytes built.
func TestEpochRewrittenPageFailsReload(t *testing.T) {
	const arity = 3
	dir := filepath.Join(t.TempDir(), "ep1")
	e := writeEdgeEpoch(t, dir, edgeRows(300, arity), arity)
	pool := NewPool(1 << 20)
	if _, err := e.Row(0, pool); err != nil {
		t.Fatal(err)
	}
	pool.InvalidateOwner(e)
	path := filepath.Join(dir, epochRowsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[1] ^= 0x01 // inside page 0's first value
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, read := range []func() error{
		func() error { _, err := e.Row(0, pool); return err },
		func() error { _, _, err := e.AppendRow(nil, nil, 0, pool); return err },
	} {
		err := read()
		var pe *PageError
		if !errors.As(err, &pe) || pe.Page != 0 || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("reload of a rewritten page: %v, want a checksum *PageError for page 0", err)
		}
	}
	if got := e.Validations(); got != 1 {
		t.Fatalf("%d validations, want 1: the reloads must stop at the checksum", got)
	}
}

// TestEpochFailedValidationKeepsNoTable: a page that fails its first
// validation leaves no row-offset table behind, so every later load of
// it validates — and fails — again.
func TestEpochFailedValidationKeepsNoTable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ep1")
	writeBadTagEpoch(t, dir)
	e, err := OpenEpoch(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pool := NewPool(1 << 20)
	for try := 1; try <= 2; try++ {
		_, _, err := e.AppendRow(nil, nil, 0, pool)
		var pe *PageError
		if !errors.As(err, &pe) || pe.Page != 0 || !strings.Contains(err.Error(), "tag 127") {
			t.Fatalf("try %d: %v, want a *PageError for page 0's bad tag", try, err)
		}
		if e.tables[0] != nil || e.TableBytes() != 0 {
			t.Fatalf("try %d: a page that failed validation left a table of %d bytes", try, e.TableBytes())
		}
		if got := e.Validations(); got != uint64(try) {
			t.Fatalf("try %d: %d validations, want %d", try, got, try)
		}
	}
}

// TestEpochRetireDropsTables: Retire drops every table and keeps none
// afterwards — reads of a retired epoch still work, validating each
// load again.
func TestEpochRetireDropsTables(t *testing.T) {
	const n, arity = 200, 2
	rows := edgeRows(n, arity)
	e := writeEdgeEpoch(t, filepath.Join(t.TempDir(), "ep1"), rows, arity)
	pool := NewPool(1 << 20)
	readAll := func() {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := e.Row(i, pool); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll()
	if e.TableBytes() == 0 {
		t.Fatal("no table kept after reading every page")
	}
	e.Retire()
	pool.InvalidateOwner(e)
	readAll()
	if e.TableBytes() != 0 {
		t.Fatalf("a retired epoch keeps %d table bytes", e.TableBytes())
	}
	if got, want := e.Validations(), 2*uint64(len(e.pages)); got != want {
		t.Fatalf("%d validations, want %d: a retired epoch validates every load", got, want)
	}
}

// TestEpochAppendRowEveryTag: a copied row is the row's encoding byte
// for byte, and its value starts split it into each value's encoding —
// for every value kind, across every page boundary, through a pool of
// two pages.
func TestEpochAppendRowEveryTag(t *testing.T) {
	const n, arity = 700, 4
	rows := edgeRows(n, arity)
	e := writeEdgeEpoch(t, filepath.Join(t.TempDir(), "ep1"), rows, arity)
	pool := NewPool(2 << 10)
	dst := []byte("prefix")
	starts := []int{-1}
	for i := 0; i < n; i++ {
		from, mark := len(dst), len(starts)
		var err error
		if dst, starts, err = e.AppendRow(dst, starts, i, pool); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst[from:], rowBytes(t, rows[i])) {
			t.Fatalf("AppendRow(%d) copied %x, want %x", i, dst[from:], rowBytes(t, rows[i]))
		}
		if len(starts) != mark+arity {
			t.Fatalf("AppendRow(%d) appended %d value starts, want %d", i, len(starts)-mark, arity)
		}
		for c, v := range rows[i] {
			end := len(dst)
			if c+1 < arity {
				end = starts[mark+c+1]
			}
			want, err := AppendValue(nil, v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst[starts[mark+c]:end], want) {
				t.Fatalf("row %d value %d: %x, want %x", i, c, dst[starts[mark+c]:end], want)
			}
		}
	}
	if !bytes.HasPrefix(dst, []byte("prefix")) || starts[0] != -1 {
		t.Fatal("AppendRow disturbed what dst or starts held before")
	}
}

// epochSeeds are FuzzEpoch's seed corpus: an epoch.json and a rows.pag
// each — an intact epoch of every value kind, then the corrupted-page
// cases of this package's tests: a flipped byte, a bad tag under a
// checksum that verifies, a truncated row file and page directories
// that do not describe it.
func epochSeeds(t testing.TB) [][2][]byte {
	read := func(dir string) [2][]byte {
		meta, err := os.ReadFile(filepath.Join(dir, epochMetaFile))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := os.ReadFile(filepath.Join(dir, epochRowsFile))
		if err != nil {
			t.Fatal(err)
		}
		return [2][]byte{meta, rows}
	}
	edge := filepath.Join(t.TempDir(), "edge")
	if err := WriteEpoch(edge, 3, 120, func(i int) []pref.Value { return edgeRows(120, 3)[i] }, nil, nil, 1024); err != nil {
		t.Fatal(err)
	}
	intact := read(edge)
	badTag := filepath.Join(t.TempDir(), "badtag")
	writeBadTagEpoch(t, badTag)
	seeds := [][2][]byte{intact, read(badTag)}

	flipped := bytes.Clone(intact[1])
	flipped[len(flipped)/2] ^= 0xff
	seeds = append(seeds, [2][]byte{intact[0], flipped}, [2][]byte{intact[0], intact[1][:len(intact[1])-3]})

	// A page whose checksum verifies but whose last row runs past its end.
	var meta epochMeta
	if err := json.Unmarshal(intact[0], &meta); err != nil {
		t.Fatal(err)
	}
	for _, edit := range []func(m *epochMeta){
		func(m *epochMeta) { m.Pages[0].Rows++; m.N++ },
		func(m *epochMeta) { m.Pages[0].Len--; m.Pages[1].Off-- },
		func(m *epochMeta) { m.Arity = 1 << 40 },
		func(m *epochMeta) {
			m.Pages[0].CRC = crc32.ChecksumIEEE(intact[1][:m.Pages[0].Len-1])
			m.Pages[0].Len--
		},
	} {
		m := meta
		m.Pages = append([]epochPage(nil), meta.Pages...)
		edit(&m)
		doc, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, [2][]byte{doc, intact[1]})
	}
	return seeds
}

// FuzzEpoch: whatever bytes an epoch's epoch.json and rows.pag hold,
// opening it and reading it — every row twice through a one-frame pool,
// so the second read of each page takes the reload path over its kept
// table, a full scan and a copy of every row — never panics: every
// failure is an open error or a *PageError, and no allocation is sized
// from a length the page directory check did not accept.
func FuzzEpoch(f *testing.F) {
	for _, s := range epochSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, meta, rows []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, epochMetaFile), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, epochRowsFile), rows, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := OpenEpoch(dir, false)
		if err != nil {
			return
		}
		defer e.Close()
		typed := func(what string, err error) {
			t.Helper()
			var pe *PageError
			if err != nil && !errors.As(err, &pe) {
				t.Fatalf("%s: %v (%T), want a *PageError", what, err, err)
			}
		}
		pool := NewPool(1)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < e.N(); i++ {
				_, err := e.Row(i, pool)
				typed("Row", err)
			}
		}
		_, err = e.AppendAllRows(nil, pool)
		typed("AppendAllRows", err)
		var dst []byte
		var starts []int
		for i := 0; i < e.N(); i++ {
			mark := len(starts)
			dst, starts, err = e.AppendRow(dst, starts, i, pool)
			typed("AppendRow", err)
			if err == nil && len(starts) != mark+e.Arity() {
				t.Fatalf("AppendRow(%d): %d value starts for arity %d", i, len(starts)-mark, e.Arity())
			}
		}
	})
}

// TestEpochConcurrentReadsAndRetire: readers loading, evicting and
// reloading one epoch's pages at once — some keeping tables, some
// reusing them — while the epoch is retired mid-way, all copy exactly
// the rows written.
func TestEpochConcurrentReadsAndRetire(t *testing.T) {
	const n, arity, readers = 400, 3, 4
	rows := edgeRows(n, arity)
	e := writeEdgeEpoch(t, filepath.Join(t.TempDir(), "ep1"), rows, arity)
	pool := NewPool(2 << 10)
	want := make([][]byte, n)
	for i, row := range rows {
		want[i] = rowBytes(t, row)
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for k := 0; k < n; k++ {
					i := (k*7 + g*101) % n
					got, _, err := e.AppendRow(nil, nil, i, pool)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, want[i]) {
						t.Errorf("reader %d: row %d = %x, want %x", g, i, got, want[i])
						return
					}
				}
				if g == 0 && pass == 1 {
					e.Retire()
				}
			}
		}(g)
	}
	wg.Wait()
	if e.TableBytes() != 0 {
		t.Fatalf("a retired epoch keeps %d table bytes", e.TableBytes())
	}
}
