package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pref"
)

func TestValueRoundTrip(t *testing.T) {
	now := time.Date(2024, 5, 17, 9, 30, 0, 123456789, time.UTC)
	cases := []struct {
		in   pref.Value
		want pref.Value
	}{
		{nil, nil},
		{"", ""},
		{"hello", "hello"},
		{int(42), int64(42)},
		{int8(-7), int64(-7)},
		{int64(1) << 52, int64(1) << 52},
		{3.25, 3.25},
		{float32(1.5), 1.5},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), math.Inf(-1)},
		{true, true},
		{false, false},
		{now, now},
		{uint16(9), 9.0}, // exotic numerics persist as their float image
	}
	for _, c := range cases {
		buf, err := AppendValue(nil, c.in)
		if err != nil {
			t.Fatalf("AppendValue(%v): %v", c.in, err)
		}
		got, rest, err := ReadValue(buf)
		if err != nil {
			t.Fatalf("ReadValue(%v): %v", c.in, err)
		}
		if len(rest) != 0 {
			t.Fatalf("ReadValue(%v): %d trailing bytes", c.in, len(rest))
		}
		if tm, ok := c.want.(time.Time); ok {
			if !tm.Equal(got.(time.Time)) {
				t.Fatalf("time round trip: got %v want %v", got, c.want)
			}
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("round trip %v (%T): got %v (%T) want %v (%T)", c.in, c.in, got, got, c.want, c.want)
		}
	}
	// A value neither of the six tags nor numeric is refused.
	if _, err := AppendValue(nil, struct{}{}); err == nil {
		t.Fatal("struct value encoded")
	}
}

func TestValueRoundTripNaN(t *testing.T) {
	buf, err := AppendValue(nil, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.(float64)) {
		t.Fatalf("NaN round trip: got %v", got)
	}
}

func TestRowRoundTrip(t *testing.T) {
	row := []pref.Value{"bmw", int64(30000), 231.5, nil, true}
	buf, err := AppendRow(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := ReadRow(buf, len(row))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(got, row) {
		t.Fatalf("got %v want %v", got, row)
	}
}

func TestReadValueTruncated(t *testing.T) {
	buf, _ := AppendValue(nil, "hello world")
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := ReadValue(buf[:cut]); err == nil {
			t.Fatalf("ReadValue of %d/%d bytes: want error", cut, len(buf))
		}
	}
}

func walRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	w, recs, err := OpenWAL(path, false)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	w.Close()
	return recs
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	got := walRecords(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("durable-1"))
	w.Append([]byte("durable-2"))
	w.Close()

	// Simulate a crash mid-append: a trailing fragment of a record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2}) // length says 9, frame cut inside header/payload
	f.Close()

	recs := walRecords(t, path)
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want the 2 durable ones", len(recs))
	}
	// Recovery truncates: appends after reopen extend a clean log.
	w2, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("durable-3")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if got := walRecords(t, path); len(got) != 3 || string(got[2]) != "durable-3" {
		t.Fatalf("after truncate+append: %d records", len(got))
	}
}

func TestWALCorruptMiddleStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := OpenWAL(path, false)
	w.Append([]byte("aaaa"))
	w.Append([]byte("bbbb"))
	w.Append([]byte("cccc"))
	w.Close()
	// Flip one payload byte of the middle record.
	data, _ := os.ReadFile(path)
	data[8+4+8+2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	recs := walRecords(t, path)
	if len(recs) != 1 || string(recs[0]) != "aaaa" {
		t.Fatalf("replay past corruption: got %d records", len(recs))
	}
}

func TestWALFaultInjection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("full-record")); err != nil {
		t.Fatal(err)
	}
	defer ClearWALFaults()
	InstallWALFault(path, 10) // cut the next frame after 10 bytes
	if err := w.Append([]byte("torn-record")); err == nil {
		t.Fatal("injected crash append: want error")
	}
	if err := w.Append([]byte("after-crash")); err == nil {
		t.Fatal("append on poisoned WAL: want error")
	}
	w.Close()
	recs := walRecords(t, path)
	if len(recs) != 1 || string(recs[0]) != "full-record" {
		t.Fatalf("recovered %d records, want only the durable prefix", len(recs))
	}
}

// onePage is a one-row, one-column page holding v, built the way a load
// builds every page: encoded, then indexed.
func onePage(t *testing.T, v pref.Value) Page {
	t.Helper()
	buf, err := AppendRow(nil, []pref.Value{v})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := indexPage(buf, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// pageValue decodes the one value of a onePage page.
func pageValue(t *testing.T, pg Page) pref.Value {
	t.Helper()
	row, err := pg.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	return row[0]
}

func TestPoolHitMissEvict(t *testing.T) {
	type owner struct{ _ int }
	o := &owner{}
	loads := 0
	mk := func(p int) func() (Page, error) {
		return func() (Page, error) {
			loads++
			return onePage(t, int64(p)), nil
		}
	}
	size := onePage(t, int64(0)).Bytes()
	budget := 2*size + size/2 // room for two pages
	p := NewPool(budget)
	for i := 0; i < 2; i++ {
		page, rel, err := p.Get(PageKey{o, 0}, mk(0))
		if err != nil {
			t.Fatal(err)
		}
		if pageValue(t, page).(int64) != 0 {
			t.Fatal("wrong page")
		}
		rel()
	}
	if loads != 1 {
		t.Fatalf("page 0 loaded %d times, want 1", loads)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Fill past capacity: a page must be evicted.
	for pg := 1; pg <= 3; pg++ {
		_, rel, err := p.Get(PageKey{o, pg}, mk(pg))
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	st = p.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfill: %+v", st)
	}
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d bytes over budget %d: %+v", st.ResidentBytes, budget, st)
	}
}

func TestPoolPinnedPagesSurviveEviction(t *testing.T) {
	type owner struct{ _ int }
	o := &owner{}
	p := NewPool(onePage(t, "pinned").Bytes() + 1)
	page0, rel0, err := p.Get(PageKey{o, 0}, func() (Page, error) {
		return onePage(t, "pinned"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// While page 0 is pinned, churn other pages far past the budget.
	for pg := 1; pg <= 5; pg++ {
		_, rel, err := p.Get(PageKey{o, pg}, func() (Page, error) {
			return onePage(t, int64(pg)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	// The pinned page must still be resident (a Get is a hit, no load).
	got, rel, err := p.Get(PageKey{o, 0}, func() (Page, error) {
		t.Fatal("pinned page was evicted")
		return Page{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pageValue(t, got) != "pinned" || pageValue(t, page0) != "pinned" {
		t.Fatal("pinned page content changed")
	}
	rel()
	rel0()
}

func TestPoolLoadErrorNotCached(t *testing.T) {
	type owner struct{ _ int }
	o := &owner{}
	p := NewPool(1000)
	wantErr := fmt.Errorf("disk on fire")
	if _, _, err := p.Get(PageKey{o, 0}, func() (Page, error) {
		return Page{}, wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("load error: got %v, want %v", err, wantErr)
	}
	// The failed load must not poison the key.
	page, rel, err := p.Get(PageKey{o, 0}, func() (Page, error) {
		return onePage(t, "ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pageValue(t, page) != "ok" {
		t.Fatal("retry served stale frame")
	}
	rel()
	if st := p.Stats(); st.Resident != 1 || st.ResidentBytes != page.Bytes() {
		t.Fatalf("failed load left budget behind: %+v", st)
	}
}

// TestPoolLoadPanicDropsFrame: a load that panics must settle its frame
// — the reader already waiting on it gets an error, the panic reaches
// the loading caller, and the next Get loads the page afresh instead of
// blocking forever on a frame nobody will finish.
func TestPoolLoadPanicDropsFrame(t *testing.T) {
	type owner struct{ _ int }
	o := &owner{}
	p := NewPool(1000)
	key := PageKey{o, 0}

	unblock := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		p.Get(key, func() (Page, error) {
			<-unblock
			panic("torn read")
		})
	}()
	waitHits := func(n uint64) {
		deadline := time.Now().Add(5 * time.Second)
		for p.Stats().Misses < 1 || p.Stats().Hits < n {
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for the pool")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// A second reader of the same page joins the in-flight load.
	waiter := make(chan error, 1)
	waitHits(0)
	go func() {
		_, _, err := p.Get(key, func() (Page, error) {
			return Page{}, errors.New("waiter must not load")
		})
		waiter <- err
	}()
	waitHits(1)
	close(unblock)
	if v := <-panicked; v != "torn read" {
		t.Fatalf("loading caller recovered %v, want the load's panic", v)
	}
	if err := <-waiter; err == nil {
		t.Fatal("reader waiting on a panicked load got a page")
	}

	fresh := onePage(t, "fresh")
	type got struct {
		page Page
		err  error
	}
	done := make(chan got, 1)
	go func() {
		page, rel, err := p.Get(key, func() (Page, error) { return fresh, nil })
		if err == nil {
			rel()
		}
		done <- got{page, err}
	}()
	select {
	case g := <-done:
		if g.err != nil {
			t.Fatal(g.err)
		}
		if pageValue(t, g.page) != "fresh" {
			t.Fatal("stale page after a panicked load")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get after a panicked load blocks forever")
	}
	if st := p.Stats(); st.Resident != 1 {
		t.Fatalf("resident frames after reload: %+v", st)
	}
}

func testRows(n, arity int) [][]pref.Value {
	rows := make([][]pref.Value, n)
	for i := range rows {
		row := make([]pref.Value, arity)
		row[0] = fmt.Sprintf("name-%d", i)
		for c := 1; c < arity; c++ {
			row[c] = int64(i*10 + c)
		}
		rows[i] = row
	}
	return rows
}

func writeTestEpoch(t *testing.T, dir string, rows [][]pref.Value, arity int) {
	t.Helper()
	n := len(rows)
	floats := map[int]FloatSeg{}
	for c := 1; c < arity; c++ {
		seg := FloatSeg{Vals: make([]float64, n), Mask: make([]bool, n)}
		for i := range rows {
			seg.Vals[i] = float64(rows[i][c].(int64))
			seg.Mask[i] = true
		}
		floats[c] = seg
	}
	eqs := map[int][]uint32{0: make([]uint32, n)}
	for i := range eqs[0] {
		eqs[0][i] = uint32(i + 1)
	}
	if err := WriteEpoch(dir, arity, n, func(i int) []pref.Value { return rows[i] }, floats, eqs, 2048); err != nil {
		t.Fatalf("WriteEpoch: %v", err)
	}
}

func TestEpochRoundTrip(t *testing.T) {
	for _, mm := range []bool{true, false} {
		t.Run(fmt.Sprintf("mmap=%v", mm), func(t *testing.T) {
			const n, arity = 500, 3
			rows := testRows(n, arity)
			dir := filepath.Join(t.TempDir(), "ep1")
			writeTestEpoch(t, dir, rows, arity)

			e, err := OpenEpoch(dir, mm)
			if err != nil {
				t.Fatalf("OpenEpoch: %v", err)
			}
			defer e.Close()
			if e.N() != n || e.Arity() != arity {
				t.Fatalf("epoch %d x %d, want %d x %d", e.N(), e.Arity(), n, arity)
			}
			if len(e.pages) < 2 {
				t.Fatalf("expected multiple pages, got %d", len(e.pages))
			}
			pool := NewPool(1 << 20)
			for _, i := range []int{0, 1, 17, 255, n - 1} {
				got, err := e.Row(i, pool)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, rows[i]) {
					t.Fatalf("row %d: got %v want %v", i, got, rows[i])
				}
			}
			all, err := e.AppendAllRows(nil, pool)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all, rows) {
				t.Fatal("AppendAllRows mismatch")
			}
			vals, mask, ok := e.Floats(1)
			if !ok || len(vals) != n || !mask[0] || vals[17] != float64(rows[17][1].(int64)) {
				t.Fatalf("float segment: ok=%v len=%d", ok, len(vals))
			}
			codes, ok := e.Eq(0)
			if !ok || len(codes) != n || codes[42] != 43 {
				t.Fatalf("eq segment: ok=%v", ok)
			}
			if e.SegmentBytes() <= 0 {
				t.Fatal("SegmentBytes not accounted")
			}
		})
	}
}

func TestEpochTinyPoolStillServesAllRows(t *testing.T) {
	const n, arity = 2000, 3
	rows := testRows(n, arity)
	dir := filepath.Join(t.TempDir(), "ep1")
	writeTestEpoch(t, dir, rows, arity)
	e, err := OpenEpoch(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pool := NewPool(4096) // far smaller than the row file: constant churn
	for i := 0; i < n; i += 37 {
		got, err := e.Row(i, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rows[i]) {
			t.Fatalf("row %d mismatch under tiny pool", i)
		}
	}
	st := pool.Stats()
	if st.ResidentBytes > 4096+int64(8<<10) {
		t.Fatalf("pool grossly over budget: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("tiny pool never evicted: %+v", st)
	}
}

func TestEpochCorruptPageDetected(t *testing.T) {
	const n, arity = 200, 2
	rows := testRows(n, arity)
	dir := filepath.Join(t.TempDir(), "ep1")
	writeTestEpoch(t, dir, rows, arity)
	// Flip a byte in the row file.
	path := filepath.Join(dir, epochRowsFile)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	e, err := OpenEpoch(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pool := NewPool(1 << 20)
	var sawErr bool
	for i := 0; i < n; i++ {
		if _, err := e.Row(i, pool); err != nil {
			var pe *PageError
			if !errors.As(err, &pe) || pe.Page < 0 || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("corrupt page: %v, want a *PageError naming the page's checksum", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("corrupt page served without a checksum error")
	}
}

// edgeValues is every value kind the codec distinguishes: NULL, the
// empty and a multibyte string, int64 min/max and an int beyond 2^53,
// NaN, ±Inf, −0, both bools and a TIME with nanoseconds.
var edgeValues = []pref.Value{
	nil, "", "Größe 日本 🚗",
	int64(math.MinInt64), int64(math.MaxInt64), int64(1)<<53 + 1,
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	true, false, time.Date(2024, 2, 29, 23, 59, 59, 999999999, time.UTC),
}

// edgeRows cycles edgeValues through every column position.
func edgeRows(n, arity int) [][]pref.Value {
	rows := make([][]pref.Value, n)
	for i := range rows {
		row := make([]pref.Value, arity)
		for c := range row {
			row[c] = edgeValues[(i*arity+c)%len(edgeValues)]
		}
		rows[i] = row
	}
	return rows
}

// rowBytes is a row's encoding — the exact comparison: NaN, −0 and the
// int/float distinction survive it, where reflect.DeepEqual fails on NaN.
func rowBytes(t *testing.T, row []pref.Value) []byte {
	t.Helper()
	b, err := AppendRow(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeEdgeEpoch writes rows as a row-store-only epoch in small pages.
func writeEdgeEpoch(t *testing.T, dir string, rows [][]pref.Value, arity int) *Epoch {
	t.Helper()
	if err := WriteEpoch(dir, arity, len(rows), func(i int) []pref.Value { return rows[i] }, nil, nil, 1024); err != nil {
		t.Fatal(err)
	}
	e, err := OpenEpoch(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestEpochRowsEveryTagTinyPool: under a pool that holds two pages,
// every row read one at a time, every row of a full scan and the rows
// written agree byte for byte — across every page boundary and for
// every value kind.
func TestEpochRowsEveryTagTinyPool(t *testing.T) {
	const n, arity = 700, 4
	rows := edgeRows(n, arity)
	e := writeEdgeEpoch(t, filepath.Join(t.TempDir(), "ep1"), rows, arity)
	if len(e.pages) < 8 {
		t.Fatalf("want many pages, got %d", len(e.pages))
	}
	var largest int64
	for p := range e.pages {
		pg, err := e.loadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, pg.Bytes())
	}
	pool := NewPool(2 * largest)
	for i := 0; i < n; i++ {
		got, err := e.Row(i, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rowBytes(t, got), rowBytes(t, rows[i])) {
			t.Fatalf("Row(%d) = %v, want %v", i, got, rows[i])
		}
	}
	all, err := e.AppendAllRows(nil, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("AppendAllRows: %d rows, want %d", len(all), n)
	}
	for i := range all {
		if !bytes.Equal(rowBytes(t, all[i]), rowBytes(t, rows[i])) {
			t.Fatalf("AppendAllRows row %d = %v, want %v", i, all[i], rows[i])
		}
	}
	st := pool.Stats()
	if st.Evictions == 0 || st.ResidentBytes > 2*largest+largest {
		t.Fatalf("pool of two pages: %+v", st)
	}
}

// TestEpochBadTagElsewhereFailsAtLoad: a page whose checksum verifies
// but which holds an unknown tag in row 5 fails when it is loaded —
// reading row 0 of that page already reports it — not when a later read
// happens to reach row 5.
func TestEpochBadTagElsewhereFailsAtLoad(t *testing.T) {
	const n, arity = 60, 3
	rows := testRows(n, arity)
	dir := filepath.Join(t.TempDir(), "ep1")
	writeTestEpoch(t, dir, rows, arity)

	off := 0
	for _, row := range rows[:5] {
		off += len(rowBytes(t, row))
	}
	rowsPath := filepath.Join(dir, epochRowsFile)
	data, err := os.ReadFile(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	data[off] = 0x7f // row 5's first tag
	var meta epochMeta
	metaPath := filepath.Join(dir, epochMetaFile)
	doc, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Pages[0].Rows <= 5 {
		t.Fatalf("test premise: row 5 must be on page 0 (%d rows)", meta.Pages[0].Rows)
	}
	pg := &meta.Pages[0]
	pg.CRC = crc32.ChecksumIEEE(data[pg.Off : pg.Off+int64(pg.Len)])
	if doc, err = json.Marshal(&meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rowsPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	e, err := OpenEpoch(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pool := NewPool(1 << 20)
	for _, read := range []func() error{
		func() error { _, err := e.Row(0, pool); return err },
		func() error { _, err := e.AppendAllRows(nil, pool); return err },
	} {
		err := read()
		var pe *PageError
		if !errors.As(err, &pe) || pe.Page != 0 || !strings.Contains(err.Error(), "row 5") || !strings.Contains(err.Error(), "tag 127") {
			t.Fatalf("read through a page with a bad tag in row 5: %v, want a *PageError for page 0 row 5", err)
		}
	}
	if st := pool.Stats(); st.Resident != 0 {
		t.Fatalf("a page that failed to index stayed resident: %+v", st)
	}
}

// TestEpochRowSurvivesEvictionAndReload: a decoded row is the caller's
// own copy — scribbling on one leaves the frame and every other read
// alone, and a row kept across its frame's eviction and reload is
// unchanged.
func TestEpochRowSurvivesEvictionAndReload(t *testing.T) {
	const arity = 3
	rows := edgeRows(300, arity)
	e := writeEdgeEpoch(t, filepath.Join(t.TempDir(), "ep1"), rows, arity)
	pool := NewPool(1 << 20)
	want := rowBytes(t, rows[7])

	kept, err := e.Row(7, pool)
	if err != nil {
		t.Fatal(err)
	}
	scribbled, err := e.Row(7, pool)
	if err != nil {
		t.Fatal(err)
	}
	scribbled[0], scribbled[1] = "scribble", int64(-1)
	again, err := e.Row(7, pool)
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("want one load and two hits: %+v", st)
	}
	if !bytes.Equal(rowBytes(t, again), want) {
		t.Fatalf("a caller's write reached the frame: %v", again)
	}

	pool.InvalidateOwner(e)
	if st := pool.Stats(); st.Resident != 0 {
		t.Fatalf("frame not evicted: %+v", st)
	}
	reloaded, err := e.Row(7, pool)
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Misses != 2 {
		t.Fatalf("row after eviction was not reloaded: %+v", st)
	}
	if !bytes.Equal(rowBytes(t, kept), want) || !bytes.Equal(rowBytes(t, reloaded), want) {
		t.Fatalf("row changed across eviction and reload: kept %v, reloaded %v", kept, reloaded)
	}
}

// TestOpenEpochRejectsBadPageDirectory: an epoch.json whose page
// directory does not describe rows.pag fails at open with a *PageError —
// a negative length used to panic in make on the first read, a huge one
// to allocate it.
func TestOpenEpochRejectsBadPageDirectory(t *testing.T) {
	cases := []struct {
		name string
		edit func(m *epochMeta)
	}{
		{"negative length", func(m *epochMeta) { m.Pages[1].Len = -5 }},
		{"huge length", func(m *epochMeta) { m.Pages[len(m.Pages)-1].Len = math.MaxInt32 }},
		{"past end of file", func(m *epochMeta) { m.Pages[len(m.Pages)-1].Len++ }},
		{"gap", func(m *epochMeta) { m.Pages[1].Off++ }},
		{"overlap", func(m *epochMeta) { m.Pages[1].Off-- }},
		{"zero rows", func(m *epochMeta) { m.Pages[1].Rows += m.Pages[0].Rows; m.Pages[0].Rows = 0 }},
		{"more rows than bytes", func(m *epochMeta) { m.Pages[0].Rows = 1 << 40; m.N += 1<<40 - 1 }},
		{"rows do not sum to n", func(m *epochMeta) { m.N++ }},
		{"negative n", func(m *epochMeta) { m.N = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ep1")
			writeTestEpoch(t, dir, testRows(300, 3), 3)
			path := filepath.Join(dir, epochMetaFile)
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var meta epochMeta
			if err := json.Unmarshal(doc, &meta); err != nil {
				t.Fatal(err)
			}
			if len(meta.Pages) < 3 {
				t.Fatalf("test premise: want several pages, got %d", len(meta.Pages))
			}
			c.edit(&meta)
			if doc, err = json.Marshal(&meta); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, doc, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := OpenEpoch(dir, true)
			if err == nil {
				e.Close()
				t.Fatal("OpenEpoch accepted a bad page directory")
			}
			var pe *PageError
			if !errors.As(err, &pe) || !strings.Contains(err.Error(), "page directory") {
				t.Fatalf("OpenEpoch: %v, want a *PageError on the page directory", err)
			}
		})
	}
}
