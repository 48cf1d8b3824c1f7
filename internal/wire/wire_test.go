package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/pref"
	"repro/internal/relation"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []pref.Value{
		nil,
		"",
		"BMW",
		true,
		false,
		int64(-42),
		float64(3.5),
		math.Inf(-1),
		time.Date(2002, 8, 20, 10, 30, 0, 123456789, time.UTC),
	}
	var buf []byte
	var err error
	for _, v := range vals {
		if buf, err = AppendValue(buf, v); err != nil {
			t.Fatalf("AppendValue(%v): %v", v, err)
		}
	}
	for _, want := range vals {
		var got pref.Value
		if got, buf, err = ReadValue(buf); err != nil {
			t.Fatalf("ReadValue: %v", err)
		}
		if !pref.EqualValues(got, want) {
			t.Fatalf("round trip: got %v (%T), want %v (%T)", got, got, want, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestValueWidening(t *testing.T) {
	// All integer widths widen to int64 on the wire; float32 to float64.
	buf, err := AppendValue(nil, int(7))
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := ReadValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(7) {
		t.Fatalf("int widening: got %v (%T)", v, v)
	}
	buf, err = AppendValue(nil, float32(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if v, _, err = ReadValue(buf); err != nil {
		t.Fatal(err)
	}
	if v != float64(1.5) {
		t.Fatalf("float widening: got %v (%T)", v, v)
	}
}

func TestValueRejectsUnencodable(t *testing.T) {
	if _, err := AppendValue(nil, struct{}{}); err == nil {
		t.Fatal("struct value encoded")
	}
}

func TestValueTruncation(t *testing.T) {
	full, err := AppendValue(nil, "preference")
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := ReadValue(full[:cut]); err == nil && cut < len(full) {
			t.Fatalf("truncated value at %d/%d decoded", cut, len(full))
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		SnapVersion: 17,
		SnapLen:     409,
		NRows:       12,
		Cols: []Col{
			{Name: "make", Type: relation.String},
			{Name: "price", Type: relation.Int},
			{Name: "power", Type: relation.Float},
		},
	}
	got, err := DecodeHeader(EncodeHeader(h))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("header round trip: got %+v, want %+v", got, h)
	}
}

func TestHeaderStreamSentinel(t *testing.T) {
	h := Header{SnapVersion: 1, SnapLen: 2, NRows: StreamRows}
	got, err := DecodeHeader(EncodeHeader(h))
	if err != nil {
		t.Fatal(err)
	}
	if got.NRows != StreamRows {
		t.Fatalf("stream sentinel lost: %d", got.NRows)
	}
}

func TestColumnRoundTrip(t *testing.T) {
	vals := []pref.Value{int64(1), nil, int64(3)}
	payload, err := EncodeColumn(2, vals)
	if err != nil {
		t.Fatal(err)
	}
	col, got, err := DecodeColumn(payload, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if col != 2 || !reflect.DeepEqual(got, vals) {
		t.Fatalf("column round trip: col=%d vals=%v", col, got)
	}
	// Trailing garbage must be rejected.
	if _, _, err := DecodeColumn(append(payload, 0), len(vals)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestRowRoundTrip: a stream's first row travels as a one-row batch.
func TestRowRoundTrip(t *testing.T) {
	row := relation.Row{"BMW", int64(45000), 170.0}
	var b RowBatch
	if err := b.Append(row); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRowBatch(b.Payload(), len(row))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], row) {
		t.Fatalf("row round trip: %v", got)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	se, err := DecodeError(EncodeError(CodeOverload, "queue full"))
	if err != nil {
		t.Fatal(err)
	}
	if se.Code != CodeOverload || se.Msg != "queue full" {
		t.Fatalf("error round trip: %+v", se)
	}
	if se.Error() != "OVERLOAD: queue full" {
		t.Fatalf("Error(): %q", se.Error())
	}
}

func TestReadyRoundTrip(t *testing.T) {
	for _, partial := range []string{"", "shard 2/3 failed: disk"} {
		r, err := DecodeReady(EncodeReady(Ready{Partial: partial}))
		if err != nil {
			t.Fatal(err)
		}
		if r.Partial != partial {
			t.Fatalf("ready round trip: %q != %q", r.Partial, partial)
		}
	}
}

func TestInsertRoundTrip(t *testing.T) {
	table, row, err := DecodeInsert(mustEncodeInsert(t, "car", relation.Row{"Audi", int64(2)}))
	if err != nil {
		t.Fatal(err)
	}
	if table != "car" || !reflect.DeepEqual(row, relation.Row{"Audi", int64(2)}) {
		t.Fatalf("insert round trip: %s %v", table, row)
	}
}

func mustEncodeInsert(t *testing.T, table string, row relation.Row) []byte {
	t.Helper()
	payload, err := EncodeInsert(table, row)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestConnFraming(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteFrame(FrameQuery, []byte("SELECT * FROM car")); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(FrameQuit, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameQuery || string(payload) != "SELECT * FROM car" {
		t.Fatalf("frame 1: %c %q", typ, payload)
	}
	if typ, payload, err = c.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if typ != FrameQuit || len(payload) != 0 {
		t.Fatalf("frame 2: %c %q", typ, payload)
	}

	// Frames assembled ahead of the write (BeginFrame … EndFrame, then
	// Conn.Write) are the bytes WriteFrame writes.
	h := Header{SnapVersion: 3, SnapLen: 9, NRows: 2, Cols: []Col{{Name: "oid", Type: relation.Int}}}
	buf.Reset()
	if err := c.WriteFrame(FrameHeader, EncodeHeader(h)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(FrameReady, EncodeReady(Ready{Partial: "shard 1 missing"})); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(buf.Bytes())
	var frames []byte
	frames = AppendHeader(BeginFrame(frames, FrameHeader), h)
	if err := EndFrame(frames, 0); err != nil {
		t.Fatal(err)
	}
	start := len(frames)
	frames = AppendReady(BeginFrame(frames, FrameReady), Ready{Partial: "shard 1 missing"})
	if err := EndFrame(frames, start); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := c.Write(frames); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frames, want) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("assembled frames % x, written % x, want % x", frames, buf.Bytes(), want)
	}
}

func TestConnRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft a frame announcing more than MaxFrame.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, FrameQuery})
	if _, _, err := NewConn(&buf).ReadFrame(); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// And a zero-length frame (no type byte).
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if _, _, err := NewConn(&buf).ReadFrame(); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestStatusRoundTrip(t *testing.T) {
	in := []Stat{
		{Key: "pool.hits", Val: "812"},
		{Key: "pool.hit_rate", Val: "97.3%"},
		{Key: "shard.car/s0.segment_bytes", Val: "1048576"},
	}
	out, err := DecodeStatus(EncodeStatus(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("status round trip: %v != %v", out, in)
	}
	empty, err := DecodeStatus(EncodeStatus(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty status: %v, %v", empty, err)
	}
	if _, err := DecodeStatus([]byte{}); err == nil {
		t.Fatal("truncated status frame must error")
	}
	if _, err := DecodeStatus([]byte{200}); err == nil {
		t.Fatal("overlong status count must error")
	}
	if _, err := DecodeStatus(append(EncodeStatus(in), 0)); err == nil {
		t.Fatal("trailing bytes must error")
	}
}
