package wire

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pref"
)

// FuzzDecodeFrames feeds arbitrary bytes and an arbitrary row or column
// count to every frame decoder. None may panic, every failure is an
// error naming its layer, and whatever decodes re-encodes and decodes to
// an equal value. Its seed corpus — the round-trip tests' frames, whole
// and malformed — runs under plain go test; `go test -run xxx -fuzz
// FuzzDecodeFrames ./internal/wire` explores further.
func FuzzDecodeFrames(f *testing.F) {
	column, err := EncodeColumn(2, testColumn)
	if err != nil {
		f.Fatal(err)
	}
	rows, err := EncodeRowBatch(testRows)
	if err != nil {
		f.Fatal(err)
	}
	insert, err := EncodeInsert("car", testInsertRow)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, 0)
	f.Add(EncodeHeader(testHeader), len(testHeader.Cols))
	f.Add(column, len(testColumn))
	f.Add([]byte{0, 0, 0}, 1<<24)
	f.Add(rows, len(testRows[0]))
	f.Add([]byte{100, 0, 0}, 1)
	f.Add(insert, -1)
	f.Add(EncodeStatus(testStats), 0)
	f.Add(EncodeReady(Ready{Partial: testPartial}), 0)
	f.Add(EncodeError(CodeOverload, "queue full"), 0)
	f.Fuzz(func(t *testing.T, payload []byte, count int) {
		if h, err := DecodeHeader(payload); checkFailure(t, "header", err) {
			got, err := DecodeHeader(EncodeHeader(h))
			if err != nil || !reflect.DeepEqual(got, h) {
				t.Fatalf("header %+v re-decoded as %+v (%v)", h, got, err)
			}
		}
		if col, vals, err := DecodeColumn(payload, count); checkFailure(t, "column", err) {
			again, err := EncodeColumn(col, vals)
			if err != nil {
				t.Fatalf("column %v does not re-encode: %v", vals, err)
			}
			gotCol, got, err := DecodeColumn(again, len(vals))
			if err != nil || gotCol != col || !sameValues(got, vals) {
				t.Fatalf("column %d %v re-decoded as %d %v (%v)", col, vals, gotCol, got, err)
			}
		}
		if rows, err := DecodeRowBatch(payload, count); checkFailure(t, "row batch", err) {
			again, err := EncodeRowBatch(rows)
			if err != nil {
				t.Fatalf("rows %v do not re-encode: %v", rows, err)
			}
			got, err := DecodeRowBatch(again, count)
			if err != nil || len(got) != len(rows) {
				t.Fatalf("rows %v re-decoded as %v (%v)", rows, got, err)
			}
			for i := range rows {
				if !sameValues(got[i], rows[i]) {
					t.Fatalf("row %d %v re-decoded as %v", i, rows[i], got[i])
				}
			}
		}
		if table, row, err := DecodeInsert(payload); checkFailure(t, "insert", err) {
			again, err := EncodeInsert(table, row)
			if err != nil {
				t.Fatalf("insert %v does not re-encode: %v", row, err)
			}
			gotTable, got, err := DecodeInsert(again)
			if err != nil || gotTable != table || !sameValues(got, row) {
				t.Fatalf("insert %q %v re-decoded as %q %v (%v)", table, row, gotTable, got, err)
			}
		}
		if stats, err := DecodeStatus(payload); checkFailure(t, "status", err) {
			got, err := DecodeStatus(EncodeStatus(stats))
			if err != nil || !reflect.DeepEqual(got, stats) {
				t.Fatalf("status %v re-decoded as %v (%v)", stats, got, err)
			}
		}
		if r, err := DecodeReady(payload); checkFailure(t, "ready", err) {
			got, err := DecodeReady(EncodeReady(r))
			if err != nil || got != r {
				t.Fatalf("ready %+v re-decoded as %+v (%v)", r, got, err)
			}
		}
		if se, err := DecodeError(payload); checkFailure(t, "error", err) {
			got, err := DecodeError(EncodeError(se.Code, se.Msg))
			if err != nil || *got != *se {
				t.Fatalf("error %+v re-decoded as %+v (%v)", se, got, err)
			}
		}
	})
}

// checkFailure reports whether a decode succeeded; a failure must be an
// error from the wire framing or the store's value codec.
func checkFailure(t *testing.T, frame string, err error) bool {
	t.Helper()
	if err == nil {
		return true
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "wire: ") && !strings.HasPrefix(msg, "store: ") {
		t.Fatalf("%s frame: error %q names no decoder", frame, msg)
	}
	return false
}

// sameValues compares decoded values: same dynamic types, equal under
// pref.EqualValues, a NaN equal to a NaN.
func sameValues(a, b []pref.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if reflect.TypeOf(a[i]) != reflect.TypeOf(b[i]) {
			return false
		}
		fa, aok := a[i].(float64)
		fb, bok := b[i].(float64)
		if aok && bok && math.IsNaN(fa) && math.IsNaN(fb) {
			continue
		}
		if !pref.EqualValues(a[i], b[i]) {
			return false
		}
	}
	return true
}
