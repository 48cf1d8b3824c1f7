package wire

import (
	"testing"
	"time"

	"repro/internal/relation"
)

// TestRowBatchRoundTrip pins the batch encoding: incremental appends and
// the one-shot encoder produce the same payload, and decoding recovers
// every row and value.
func TestRowBatchRoundTrip(t *testing.T) {
	rows := testRows
	oneShot, err := EncodeRowBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	var b RowBatch
	for _, row := range rows {
		if err := b.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(rows))
	}
	if string(b.Payload()) != string(oneShot) {
		t.Fatal("incremental and one-shot encodings must agree")
	}
	got, err := DecodeRowBatch(oneShot, len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i, row := range rows {
		for c, v := range row {
			gv := got[i][c]
			if tm, ok := v.(time.Time); ok {
				if !tm.Equal(gv.(time.Time)) {
					t.Fatalf("row %d col %d: %v != %v", i, c, gv, v)
				}
				continue
			}
			if gv != v {
				t.Fatalf("row %d col %d: %v != %v", i, c, gv, v)
			}
		}
	}
	b.Reset()
	if b.Len() != 0 || len(b.Payload()) != 1 {
		t.Fatalf("Reset must empty the batch: len=%d payload=%v", b.Len(), b.Payload())
	}
}

// TestRowBatchEmpty: a zero-row batch round-trips.
func TestRowBatchEmpty(t *testing.T) {
	payload, err := EncodeRowBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DecodeRowBatch(payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("decoded %d rows from an empty batch", len(rows))
	}
}

// TestRowBatchDecodeRejectsMalformed pins the decoder's bounds: a
// truncated payload, a count exceeding the bytes present, trailing
// garbage, and a non-zero count of zero-column rows are all errors.
func TestRowBatchDecodeRejectsMalformed(t *testing.T) {
	if _, err := DecodeRowBatch(nil, 2); err == nil {
		t.Fatal("empty payload must fail")
	}
	if _, err := DecodeRowBatch([]byte{200}, 2); err == nil {
		t.Fatal("truncated uvarint must fail")
	}
	// Count 100 with two bytes of payload: rejected before allocating.
	if _, err := DecodeRowBatch([]byte{100, 0, 0}, 1); err == nil {
		t.Fatal("count exceeding payload must fail")
	}
	if _, err := DecodeRowBatch([]byte{5}, 0); err == nil {
		t.Fatal("zero-column rows must fail")
	}
	good, err := EncodeRowBatch([]relation.Row{{int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRowBatch(append(good, 0), 1); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	// Wrong arity: decoding one-column rows as two-column must fail.
	if _, err := DecodeRowBatch(good, 2); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}
