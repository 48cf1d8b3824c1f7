package wire

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/pref"
	"repro/internal/relation"
)

// rejectsBeforeAllocating fails t unless decode returns an error having
// allocated less than 64 KiB (the runtime.MemStats TotalAlloc delta): a
// count the payload cannot hold must be refused before the decoder
// sizes anything by it.
func rejectsBeforeAllocating(t *testing.T, what string, decode func() error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("%s: allocated %d bytes before failing", what, n)
	}
	if err == nil {
		t.Fatalf("%s: decoded", what)
	}
}

// The round-trip tests' frame contents; FuzzDecodeFrames seeds its
// corpus with their encodings.
var (
	testHeader = Header{
		SnapVersion: 17,
		SnapLen:     409,
		NRows:       12,
		Cols: []Col{
			{Name: "make", Type: relation.String},
			{Name: "price", Type: relation.Int},
			{Name: "power", Type: relation.Float},
		},
	}
	testColumn = []pref.Value{int64(1), nil, int64(3)}
	testRows   = []relation.Row{
		{int64(1), "a", 1.5, true, nil},
		{int64(2), "bb", -2.25, false, time.Unix(0, 12345).UTC()},
		{int64(3), "", 0.0, true, "mixed"},
	}
	testInsertRow = relation.Row{"Audi", int64(2)}
	testStats     = []Stat{
		{Key: "pool.hits", Val: "812"},
		{Key: "pool.hit_rate", Val: "97.3%"},
		{Key: "shard.car/s0.segment_bytes", Val: "1048576"},
	}
	testPartial = "shard 2/3 failed: disk"
)

// TestValueRoundTrip: every value the store holds crosses a column frame
// unchanged.
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
	payload, err := EncodeColumn(0, vals)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeColumn(payload, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if !pref.EqualValues(got[i], want) {
			t.Fatalf("round trip: got %v (%T), want %v (%T)", got[i], got[i], want, want)
		}
	}
}

// TestValueWidening: in a frame, all integer widths widen to int64 and
// float32 to float64.
func TestValueWidening(t *testing.T) {
	payload, err := EncodeColumn(0, []pref.Value{int(7), float32(1.5)})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeColumn(payload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != int64(7) {
		t.Fatalf("int widening: got %v (%T)", got[0], got[0])
	}
	if got[1] != float64(1.5) {
		t.Fatalf("float widening: got %v (%T)", got[1], got[1])
	}
}

// TestValueRejectsUnencodable: every frame that carries values refuses
// one outside the store's vocabulary.
func TestValueRejectsUnencodable(t *testing.T) {
	bad := struct{}{}
	if _, err := EncodeColumn(0, []pref.Value{bad}); err == nil {
		t.Fatal("struct value encoded in a column frame")
	}
	var b RowBatch
	if err := b.Append(relation.Row{bad}); err == nil {
		t.Fatal("struct value encoded in a row batch")
	}
	if _, err := EncodeInsert("car", relation.Row{bad}); err == nil {
		t.Fatal("struct value encoded in an insert frame")
	}
}

// TestValueTruncation: a column frame cut anywhere inside its value is
// refused.
func TestValueTruncation(t *testing.T) {
	full, err := EncodeColumn(0, []pref.Value{"preference"})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 2; cut < len(full); cut++ {
		if _, _, err := DecodeColumn(full[:cut], 1); err == nil {
			t.Fatalf("truncated value at %d/%d decoded", cut, len(full))
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := testHeader
	got, err := DecodeHeader(EncodeHeader(h))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("header round trip: got %+v, want %+v", got, h)
	}
	// A column count of 65535 over a payload holding none of them.
	payload := EncodeHeader(Header{NRows: 1 << 24})
	payload[20], payload[21] = 0xFF, 0xFF
	rejectsBeforeAllocating(t, "header of 65535 absent columns", func() error {
		_, err := DecodeHeader(payload)
		return err
	})
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
	vals := testColumn
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
	// A header announcing 1<<24 rows, then a 3-byte column frame.
	rejectsBeforeAllocating(t, "column of 1<<24 rows in 3 bytes", func() error {
		_, _, err := DecodeColumn([]byte{0, 0, 0}, 1<<24)
		return err
	})
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
	for _, partial := range []string{"", testPartial} {
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
	table, row, err := DecodeInsert(mustEncodeInsert(t, "car", testInsertRow))
	if err != nil {
		t.Fatal(err)
	}
	if table != "car" || !reflect.DeepEqual(row, testInsertRow) {
		t.Fatalf("insert round trip: %s %v", table, row)
	}
	// A column count of 65535 followed by one value.
	payload := append(AppendString(nil, "car"), 0xFF, 0xFF, 0)
	rejectsBeforeAllocating(t, "insert of 65535 values in 1 byte", func() error {
		_, _, err := DecodeInsert(payload)
		return err
	})
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
	in := testStats
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
