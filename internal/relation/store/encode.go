package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/pref"
)

// Tagged value codec: one byte of type tag, then a fixed- or
// varint-encoded body. The same framing backs WAL records, row pages
// and wire frames, so recovery, page decode and a client's decode share
// one code path. Integers of every width widen to int64 on the way
// back; unsigned and exotic numeric values round-trip through their
// float64 image, which is exactly the equality/scoring semantics the
// engine already applies (pref.Numeric feeds both EqColumn and
// FloatColumn).
// Times round-trip as UTC UnixNano instants.

// Value type tags.
const (
	tagNull  = 0
	tagStr   = 1
	tagInt   = 2
	tagFloat = 3
	tagBool  = 4
	tagTime  = 5
)

// AppendValue appends the tagged encoding of one pref.Value.
func AppendValue(buf []byte, v pref.Value) ([]byte, error) {
	switch t := v.(type) {
	case nil:
		return append(buf, tagNull), nil
	case string:
		buf = append(buf, tagStr)
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		return append(buf, t...), nil
	case int:
		return appendInt(buf, int64(t)), nil
	case int8:
		return appendInt(buf, int64(t)), nil
	case int16:
		return appendInt(buf, int64(t)), nil
	case int32:
		return appendInt(buf, int64(t)), nil
	case int64:
		return appendInt(buf, t), nil
	case float64:
		return appendFloat(buf, t), nil
	case float32:
		return appendFloat(buf, float64(t)), nil
	case bool:
		b := byte(0)
		if t {
			b = 1
		}
		return append(buf, tagBool, b), nil
	case time.Time:
		buf = append(buf, tagTime)
		return binary.AppendVarint(buf, t.UnixNano()), nil
	}
	// Anything else numeric (uint widths, custom numerics) persists as
	// its float64 image — the value the engine scores and groups by.
	if n, ok := pref.Numeric(v); ok {
		return appendFloat(buf, n), nil
	}
	return nil, fmt.Errorf("store: value %v (%T) is not encodable", v, v)
}

func appendInt(buf []byte, n int64) []byte {
	buf = append(buf, tagInt)
	return binary.AppendVarint(buf, n)
}

func appendFloat(buf []byte, f float64) []byte {
	buf = append(buf, tagFloat)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// valueLen returns the encoded length of the tagged value at the head of
// buf — tag, length prefix and body — after checking that the tag is
// known and the whole body is present. It is the codec's one validation
// rule: ReadValue decodes only what it accepted, and a row page is
// indexed by it without decoding anything.
func valueLen(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("store: truncated value (no tag)")
	}
	rest := buf[1:]
	switch buf[0] {
	case tagNull:
		return 1, nil
	case tagStr:
		n, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < n {
			return 0, fmt.Errorf("store: truncated string value")
		}
		return 1 + k + int(n), nil
	case tagInt, tagTime:
		_, k := binary.Varint(rest)
		if k <= 0 {
			return 0, fmt.Errorf("store: truncated varint value (tag %d)", buf[0])
		}
		return 1 + k, nil
	case tagFloat:
		if len(rest) < 8 {
			return 0, fmt.Errorf("store: truncated float value")
		}
		return 9, nil
	case tagBool:
		if len(rest) < 1 {
			return 0, fmt.Errorf("store: truncated bool value")
		}
		return 2, nil
	}
	return 0, fmt.Errorf("store: unknown value tag %d", buf[0])
}

// ReadValue decodes one tagged value, returning it and the remaining
// bytes.
func ReadValue(buf []byte) (pref.Value, []byte, error) {
	n, err := valueLen(buf)
	if err != nil {
		return nil, nil, err
	}
	body, rest := buf[1:n], buf[n:]
	switch buf[0] {
	case tagStr:
		_, k := binary.Uvarint(body)
		return string(body[k:]), rest, nil
	case tagInt:
		v, _ := binary.Varint(body)
		return v, rest, nil
	case tagFloat:
		return math.Float64frombits(binary.LittleEndian.Uint64(body)), rest, nil
	case tagBool:
		return body[0] != 0, rest, nil
	case tagTime:
		v, _ := binary.Varint(body)
		return time.Unix(0, v).UTC(), rest, nil
	}
	return nil, rest, nil // tagNull
}

// AppendRow appends the encoding of one row (its values in schema
// order, no arity prefix — the arity is fixed per file and recorded in
// the epoch/catalog metadata).
func AppendRow(buf []byte, row []pref.Value) ([]byte, error) {
	var err error
	for _, v := range row {
		if buf, err = AppendValue(buf, v); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// ReadRow decodes one row of the given arity, returning it and the
// remaining bytes.
func ReadRow(buf []byte, arity int) ([]pref.Value, []byte, error) {
	row := make([]pref.Value, arity)
	var err error
	for i := range row {
		if row[i], buf, err = ReadValue(buf); err != nil {
			return nil, nil, err
		}
	}
	return row, buf, nil
}
