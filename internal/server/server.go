// Package server is the Preference SQL serving layer: a TCP front end
// that executes statements concurrently over a shared catalog. Every
// query pins a storage snapshot of its source table before evaluating
// (relation.Relation.Snapshot / relation.Sharded.Snapshot), so readers
// never observe a torn write — a concurrent Insert lands in a successor
// generation the running query cannot see, and the pinned generation's
// rows and column arrays stay valid until the last reader retires.
// Sessions speak the internal/wire frame protocol; per-query contexts
// thread into psql.ExecCtx, server-level admission sheds overload as a
// typed wire error, and a graceful drain lets in-flight turns finish
// before the listener goes away.
package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Config tunes a server.
type Config struct {
	// MaxInFlight bounds concurrently evaluating queries (admission
	// slots); 0 means 16.
	MaxInFlight int
	// QueueTimeout is how long an arriving query may wait for an
	// admission slot before shedding with an overload error (0 = shed
	// immediately when saturated).
	QueueTimeout time.Duration
	// DefaultTimeout is the per-query deadline sessions start with;
	// 0 means no deadline. Sessions may lower or raise it with SET.
	DefaultTimeout time.Duration
	// MaxStatement bounds a statement's byte length; longer statements
	// are refused with a TOO_LARGE wire error. 0 means 1 MiB.
	MaxStatement int
}

// Metrics are the server's cumulative counters, read via Server.Metrics.
type Metrics struct {
	// Sessions counts accepted connections.
	Sessions uint64
	// Queries counts executed statements (successful or not).
	Queries uint64
	// Errors counts statements answered with an error frame.
	Errors uint64
	// Overloads counts queries shed by admission control.
	Overloads uint64
	// Inserts counts wire inserts applied.
	Inserts uint64
	// ResultBytesHits counts batch statements answered with the frames a
	// session retained for a repeat at the same table generation.
	ResultBytesHits uint64
	// ResultBytesRetained is the size of the answers sessions hold now.
	ResultBytesRetained uint64
}

// Server serves Preference SQL over a listener.
type Server struct {
	cfg Config
	adm *engine.Admission

	catMu sync.RWMutex
	cat   psql.Catalog

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	draining bool
	done     chan struct{} // closed when the accept loop exits

	wg sync.WaitGroup // live session goroutines

	nSessions  atomic.Uint64
	nQueries   atomic.Uint64
	nErrors    atomic.Uint64
	nOverloads atomic.Uint64
	nInserts   atomic.Uint64

	nAnswerHits atomic.Uint64
	answerBytes atomic.Int64 // retained answer bytes, all sessions

	statusFn atomic.Pointer[func() []wire.Stat]
}

// SetStatus installs a storage status provider; its entries are appended
// to every stats-frame answer after the server's own counters. The
// persistent server wires relation.Store.Stats through it (buffer-pool
// hit rate, resident pages, WAL size, per-shard segment bytes); an
// in-memory server leaves it unset. Safe to call while serving.
func (s *Server) SetStatus(fn func() []wire.Stat) {
	if fn == nil {
		s.statusFn.Store(nil)
		return
	}
	s.statusFn.Store(&fn)
}

// statusExtra returns the provider's entries, nil when unset.
func (s *Server) statusExtra() []wire.Stat {
	if fn := s.statusFn.Load(); fn != nil {
		return (*fn)()
	}
	return nil
}

// StoreStatus adapts a persistent store's statistics to the status
// report: buffer-pool counters and hit rate, aggregate WAL size, then
// per-shard segment/WAL/tail figures. prefserve installs it via
// SetStatus when it serves from a -data directory.
func StoreStatus(st *relation.Store) func() []wire.Stat {
	return func() []wire.Stat {
		stats := st.Stats()
		p := stats.Pool
		rate := "n/a"
		if p.Hits+p.Misses > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(p.Hits)/float64(p.Hits+p.Misses))
		}
		out := []wire.Stat{
			{Key: "pool.hits", Val: fmt.Sprintf("%d", p.Hits)},
			{Key: "pool.misses", Val: fmt.Sprintf("%d", p.Misses)},
			{Key: "pool.hit_rate", Val: rate},
			{Key: "pool.evictions", Val: fmt.Sprintf("%d", p.Evictions)},
			{Key: "pool.resident_pages", Val: fmt.Sprintf("%d", p.Resident)},
			{Key: "pool.resident_bytes", Val: fmt.Sprintf("%d", p.ResidentBytes)},
			{Key: "pool.cap_bytes", Val: fmt.Sprintf("%d", p.CapBytes)},
			{Key: "wal.bytes", Val: fmt.Sprintf("%d", stats.WALBytes())},
			{Key: "segments.bytes", Val: fmt.Sprintf("%d", stats.SegmentBytes())},
		}
		for _, sh := range stats.Shards {
			out = append(out,
				wire.Stat{Key: "shard." + sh.Shard + ".segment_bytes", Val: fmt.Sprintf("%d", sh.SegmentBytes)},
				wire.Stat{Key: "shard." + sh.Shard + ".wal_bytes", Val: fmt.Sprintf("%d", sh.WALBytes)},
				wire.Stat{Key: "shard." + sh.Shard + ".tail_rows", Val: fmt.Sprintf("%d", sh.TailRows)},
			)
		}
		return out
	}
}

// New builds a server over the catalog. The catalog map itself must not
// be mutated while the server runs (table contents may: Insert is what
// snapshots isolate against).
func New(cat psql.Catalog, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 16
	}
	if cfg.MaxStatement <= 0 {
		cfg.MaxStatement = 1 << 20
	}
	return &Server{
		cfg:      cfg,
		adm:      engine.NewAdmission(cfg.MaxInFlight, cfg.QueueTimeout),
		cat:      cat,
		sessions: make(map[*session]struct{}),
		done:     make(chan struct{}),
	}
}

// Serve accepts connections on ln until Shutdown (which returns nil
// here) or a listener error. Each connection runs as one session
// goroutine plus a reader pump.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: draining")
	}
	s.ln = ln
	s.mu.Unlock()
	defer close(s.done)
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		sess := newSession(s, nc)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.nSessions.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.run()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr (e.g. ":5477") and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server: the listener closes, sessions refuse new
// statements with a SHUTDOWN wire error, and in-flight turns finish.
// When every session has exited — clients seeing the shutdown notice
// are expected to quit — Shutdown returns nil; if ctx expires first the
// remaining connections are severed (cancelling their queries) and
// ctx.Err() returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	open := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, sess := range open {
		sess.notifyDrain()
	}
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.sever()
		}
		s.mu.Unlock()
		<-finished
		if ln != nil {
			<-s.done
		}
		return ctx.Err()
	}
	if ln != nil {
		<-s.done
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Metrics returns a snapshot of the cumulative counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Sessions:  s.nSessions.Load(),
		Queries:   s.nQueries.Load(),
		Errors:    s.nErrors.Load(),
		Overloads: s.nOverloads.Load(),
		Inserts:   s.nInserts.Load(),

		ResultBytesHits:     s.nAnswerHits.Load(),
		ResultBytesRetained: uint64(s.answerBytes.Load()),
	}
}

// Admission exposes the server's limiter (tests observe InFlight).
func (s *Server) Admission() *engine.Admission { return s.adm }

// table resolves a catalog table by name.
func (s *Server) table(name string) (relation.Table, bool) {
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	tbl, ok := s.cat[name]
	return tbl, ok
}

// pin is one statement's view of a catalog table: the live table it was
// resolved to, the frozen snapshot it evaluates, and that snapshot's
// generation and row count for the result header.
type pin struct {
	live relation.Table
	snap relation.Table
	gen  uint64
	len  uint64
}

// current reports whether a statement's retained answer still answers
// it: its FROM name resolves to the same live table, at the same
// generation.
func (s *Server) current(e *statement) bool {
	tbl, ok := s.table(e.q.From)
	if !ok || tbl != e.table {
		return false
	}
	switch t := tbl.(type) {
	case *relation.Relation:
		return t.Version() == e.gen
	case *relation.Sharded:
		return t.Generation() == e.gen
	}
	return false
}

// snapshotTable pins the named table's current storage generation: the
// returned frozen table is what one query evaluates over, whatever
// concurrent writers do, together with its (generation, row-count) pin
// for the result header. The generation is the flat relation's Version
// or the sharded table's count of mutations at the cut (see
// relation.Sharded.Generation); both strictly increase with every
// mutation, so (live table, generation) names the rows a statement
// reads.
func (s *Server) snapshotTable(name string) (pin, error) {
	tbl, ok := s.table(name)
	if !ok {
		return pin{}, fmt.Errorf("unknown relation %q", name)
	}
	switch t := tbl.(type) {
	case *relation.Relation:
		snap := t.Snapshot()
		return pin{live: tbl, snap: snap, gen: snap.Version(), len: uint64(snap.Len())}, nil
	case *relation.Sharded:
		snap := t.Snapshot()
		return pin{live: tbl, snap: snap, gen: snap.Generation(), len: uint64(snap.Len())}, nil
	}
	return pin{}, fmt.Errorf("relation %q has unsupported storage %T", name, tbl)
}
