package server

import (
	"fmt"
	"testing"

	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestStreamUsesRowBatchFrames drives a raw stream turn and pins the
// frame shape of a large progressive result: a header, the first row as
// a one-row batch frame (immediate time-to-first-row), the rest chunked
// into row-batch frames, then ready — with every row decodable and the
// total matching the batch query's count.
func TestStreamUsesRowBatchFrames(t *testing.T) {
	car := workload.Cars(400, 7)
	cat := psql.Catalog{"car": relation.Table(car)}
	_, addr := startServer(t, cat, Config{})
	c := dialT(t, addr)

	query := "SELECT oid FROM car WHERE price >= 0"
	rs, err := c.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	want := rs.Len()
	if want <= 2*64 {
		t.Fatalf("test premise: result of %d rows must span multiple batch chunks", want)
	}

	if err := c.RawFrame(wire.FrameStream, []byte(query)); err != nil {
		t.Fatal(err)
	}
	var hdr wire.Header
	var batches, rows int
	for done := false; !done; {
		typ, payload, err := c.ReadRaw()
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.FrameHeader:
			if hdr, err = wire.DecodeHeader(payload); err != nil {
				t.Fatal(err)
			}
		case wire.FrameRowBatch:
			decoded, err := wire.DecodeRowBatch(payload, len(hdr.Cols))
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded) == 0 || len(decoded) > 64 {
				t.Fatalf("batch of %d rows outside (0, 64]", len(decoded))
			}
			if batches == 0 && len(decoded) != 1 {
				t.Fatalf("first batch holds %d rows, want the first row alone", len(decoded))
			}
			batches++
			rows += len(decoded)
		case wire.FrameReady:
			done = true
		case wire.FrameError:
			se, _ := wire.DecodeError(payload)
			t.Fatalf("stream errored: %v", se)
		default:
			t.Fatalf("unexpected frame %q in stream", typ)
		}
	}
	if batches < 3 {
		t.Fatalf("%d row-batch frames, want >= 3 (the first row, then chunks)", batches)
	}
	if rows != want {
		t.Fatalf("streamed %d rows, batch query returned %d", rows, want)
	}
}

// TestParseCacheServesRepeatStatements exercises the per-session parse
// cache: a statement repeated past the cache, interleaved with enough
// distinct statements to trip the capacity reset, keeps answering
// identically.
func TestParseCacheServesRepeatStatements(t *testing.T) {
	car := workload.Cars(120, 11)
	cat := psql.Catalog{"car": relation.Table(car)}
	_, addr := startServer(t, cat, Config{})
	c := dialT(t, addr)

	repeat := "SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)"
	first, err := c.Query(repeat)
	if err != nil {
		t.Fatal(err)
	}
	// Overflow the parse cache with distinct statements (cap is 128).
	for i := 0; i < 140; i++ {
		distinct := fmt.Sprintf("SELECT oid FROM car WHERE price <= %d ORDER BY oid TOP 1", 1000000+i)
		if _, err := c.Query(distinct); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			if _, err := c.Query(repeat); err != nil {
				t.Fatal(err)
			}
		}
	}
	again, err := c.Query(repeat)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(first.Rows()) != renderRows(again.Rows()) {
		t.Fatal("repeat statement must answer identically through the parse cache")
	}
}
