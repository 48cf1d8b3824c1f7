package relation

import "repro/internal/relation/store"

// A generation holds its rows in up to two representations: boxed Row
// values (an in-memory relation's rows, a persistent relation's tail)
// and a base, an immutable row prefix held as the store's tagged
// encoding. A persistent relation's base is its checkpointed epoch, read
// through the buffer pool (pagedBase). A derived answer picked out of a
// paged relation holds the picked rows' encoded bytes (encodedRows), the
// in-memory form of the same thing: Pick copies each row's bytes out of
// its page without decoding it, and AppendColumn hands the stored bytes
// of a column to the wire. Both bases decode a row only when asked for
// it, and all() materializes (and memoizes) them for the interpreted
// full-scan paths.

// rowBase is a generation's encoded row prefix.
type rowBase interface {
	n() int
	row(i int) Row
	appendAll(dst []Row) []Row
	// floats and eq serve a column view the base persisted, if any.
	floats(ci int) ([]float64, []bool, bool)
	eq(ci int) ([]uint32, bool)
}

// encodedRows is a derived relation's base: rows as the store's tagged
// encoding, back to back, with where each value starts. Every value in
// it was split off by the codec's length check (valueLen) when it was
// copied or encoded in.
type encodedRows struct {
	buf         []byte
	starts      []int // starts[i·arity+c]: where row i's value c begins; a last entry, len(buf), ends the final value
	rows, arity int
}

func (e *encodedRows) n() int { return e.rows }

// value returns the encoded bytes of row i's value c.
func (e *encodedRows) value(i, c int) []byte {
	k := i*e.arity + c
	return e.buf[e.starts[k]:e.starts[k+1]]
}

func (e *encodedRows) row(i int) Row {
	row := make(Row, e.arity)
	for c := range row {
		v, _, err := store.ReadValue(e.value(i, c))
		if err != nil {
			panic(err) // unreachable: the value passed valueLen when it came in
		}
		row[c] = v
	}
	return row
}

func (e *encodedRows) appendAll(dst []Row) []Row {
	for i := 0; i < e.rows; i++ {
		dst = append(dst, e.row(i))
	}
	return dst
}

func (e *encodedRows) floats(int) ([]float64, []bool, bool) { return nil, nil, false }
func (e *encodedRows) eq(int) ([]uint32, bool)              { return nil, false }

// newEncodedRows starts an encoded answer of rows rows of the given
// arity, filled by add and finished by done.
func newEncodedRows(arity, rows int) *encodedRows {
	return &encodedRows{
		buf:    make([]byte, 0, 64*rows),
		starts: make([]int, 0, rows*arity+1),
		arity:  arity,
	}
}

// add appends row i of generation g: a row of a paged or encoded base by
// one copy of its bytes, a boxed row encoded once. A paged read that
// fails panics with its *store.PageError (see RecoverPageError).
func (e *encodedRows) add(g *generation, i int) {
	e.rows++
	var err error
	switch base := g.base.(type) {
	case *pagedBase:
		if i < base.n() {
			if e.buf, e.starts, err = base.ep.AppendRow(e.buf, e.starts, i, base.pool); err != nil {
				panic(err)
			}
			return
		}
	case *encodedRows:
		if i < base.rows {
			vals := base.starts[i*base.arity : (i+1)*base.arity+1]
			shift := len(e.buf) - vals[0]
			for _, s := range vals[:base.arity] {
				e.starts = append(e.starts, s+shift)
			}
			e.buf = append(e.buf, base.buf[vals[0]:vals[base.arity]]...)
			return
		}
	}
	for _, v := range g.row(i) {
		e.starts = append(e.starts, len(e.buf))
		if e.buf, err = store.AppendValue(e.buf, v); err != nil {
			panic(err) // unreachable: Insert type-checked the row against the schema
		}
	}
}

// done closes the last value.
func (e *encodedRows) done() *encodedRows {
	e.starts = append(e.starts, len(e.buf))
	return e
}

// newEncoded builds a derived relation over an encoded base.
func newEncoded(name string, schema *Schema, base *encodedRows) *Relation {
	r := New(name, schema)
	r.derived = true
	r.gen.Load().base = base
	return r
}

// AppendColumn appends the tagged encoding (store.AppendValue) of column
// c's value in every row, in row order, to dst: what an answer's column
// frame carries. An encoded base's values are copied as they are stored;
// boxed rows and a paged base's rows are encoded. A paged row that fails
// to read is returned as its *store.PageError.
func (r *Relation) AppendColumn(dst []byte, c int) (out []byte, err error) {
	defer RecoverPageError(&err)
	g := r.cur()
	from := 0
	if e, ok := g.base.(*encodedRows); ok {
		for i := 0; i < e.rows; i++ {
			dst = append(dst, e.value(i, c)...)
		}
		from = e.rows
	}
	for i, n := from, g.nrows(); i < n; i++ {
		if dst, err = store.AppendValue(dst, g.row(i)[c]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
