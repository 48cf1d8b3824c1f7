package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wire"
)

// sample is one completed operation: when it completed (microseconds
// into the window) and how long it took (nanoseconds, from its due time
// in the open loop).
type sample struct {
	atUs  uint32
	latNs uint32
}

// sampleLog is an append-only list of samples kept in fixed-size blocks:
// growing it never copies, so the harness's own memory grows by the
// samples taken and nothing else (a doubling slice made the resident set jump
// by its last reallocation).
type sampleLog struct {
	blocks [][]sample
}

const sampleBlock = 1 << 14

func (l *sampleLog) add(s sample) {
	if n := len(l.blocks); n == 0 || len(l.blocks[n-1]) == sampleBlock {
		l.blocks = append(l.blocks, make([]sample, 0, sampleBlock))
	}
	last := &l.blocks[len(l.blocks)-1]
	*last = append(*last, s)
}

func (l *sampleLog) len() int {
	n := 0
	for _, b := range l.blocks {
		n += len(b)
	}
	return n
}

// sessionLog is what one generator goroutine records during a window.
type sessionLog struct {
	ops       [numClasses]sampleLog
	firstRow  sampleLog // stream time-to-first-row
	attempted int
	failed    int
	lagNs     []uint32      // open loop: how late the generator sent each op
	waited    time.Duration // open loop: time spent polling the clock for the next due time
	acked     []relation.Row
	failures  []string // the first few failure descriptions, for the report
}

func (l *sessionLog) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// clampNs stores a duration as uint32 nanoseconds (saturating at ~4.29 s).
func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// hashKey is the FNV-1a hash of one canonical row key.
func hashKey(k string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(k))
	return h.Sum64()
}

// setHash is an order-independent hash of a row multiset: the sum of
// the rows' hashes plus the row count, so a result compares equal
// whatever order the server delivered it in.
type setHash struct {
	sum uint64
	n   int
}

func (h *setHash) add(key string) { h.sum += hashKey(key); h.n++ }
func (h *setHash) value() uint64  { return h.sum + uint64(h.n)<<48 }

// rowSetHash hashes a columnar result's rows as a set.
func rowSetHash(cols [][]pref.Value, n int) uint64 {
	var h setHash
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.Reset()
		for c := range cols {
			sb.WriteString(valueKey(cols[c][i]))
			sb.WriteByte(0)
		}
		h.add(sb.String())
	}
	return h.value()
}

// valueKey renders one value canonically (type-tagged, so 1 and "1" differ).
func valueKey(v pref.Value) string {
	switch x := v.(type) {
	case nil:
		return "n"
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case float64:
		return "f" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "s" + x
	case bool:
		return "b" + strconv.FormatBool(x)
	}
	return fmt.Sprintf("?%v", v)
}

// rowKey renders one row canonically.
func rowKey(row relation.Row) string {
	var sb strings.Builder
	for _, v := range row {
		sb.WriteString(valueKey(v))
		sb.WriteByte(0)
	}
	return sb.String()
}

// wrongResult is the failure of a reply that arrived intact but is not
// the answer the oracle gives.
type wrongResult string

func (w wrongResult) Error() string { return string(w) }

// execOp runs one operation on the client. It returns when the reply is
// complete; firstRow is the stream's time-to-first-row (0 for other
// classes). An error frame, an OVERLOAD/TIMEOUT refusal, a transport
// error and a wrong hot-pool result all come back as err — the caller
// counts them as failed operations, none of them stops the run.
func execOp(c *server.Client, o op, def *workloadDef, poolHash []uint64, start time.Time) (done time.Time, firstRow time.Duration, err error) {
	switch o.class {
	case classInsert:
		_, err = c.Insert(def.insertInto(), o.row)
		return time.Now(), 0, err
	case classStream:
		var n int
		_, n, err = c.Stream(o.stmt, func(relation.Row) bool {
			if firstRow == 0 {
				firstRow = time.Since(start)
			}
			return true
		})
		done = time.Now()
		if err == nil && n == 0 {
			err = wrongResult("stream delivered no rows")
		}
		return done, firstRow, err
	}
	rs, err := c.Query(o.stmt)
	done = time.Now() // the latency timestamp comes first: checking is not the server's time
	switch {
	case err != nil:
	case rs.Partial != "":
		err = wrongResult("partial result: " + rs.Partial)
	case o.pool >= 0 && poolHash != nil && rowSetHash(rs.Cols, rs.Len()) != poolHash[o.pool]:
		err = wrongResult(fmt.Sprintf("pool statement %d: row set differs from the oracle's", o.pool))
	}
	return done, 0, err
}

// brokenConn reports whether err may have ended the connection: a typed
// error frame and a wrong result leave the session usable, anything
// else (a transport error) does not.
func brokenConn(err error) bool {
	var se *wire.ServerError
	var wr wrongResult
	return !errors.As(err, &se) && !errors.As(err, &wr)
}

// waitUntil returns at t, not after it: the generator polls the clock,
// yielding to the scheduler between readings. A sleep wakes late — tens
// of microseconds out of nanosleep(2), ~1 ms out of time.Sleep, which is
// served through the network poller's millisecond-granular wait — and
// that is more than the cache hit being timed from its due time; it also
// leaves the core to come out of idle during the operation (hot-pool
// median 55–118 µs from one second to the next, against 26–30 µs when
// polling). The yield hands the P to a pending GC worker, as idle time
// would; no reply is outstanding meanwhile, the connection's previous
// operation has completed. It returns the time spent waiting.
func waitUntil(t time.Time) time.Duration {
	t0 := time.Now()
	now := t0
	for ; now.Before(t); now = time.Now() {
		runtime.Gosched()
	}
	return now.Sub(t0)
}

// windowSample is the process-level reading taken at a slice boundary.
type windowSample struct {
	at      time.Time
	cpu     time.Duration
	heapUse uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSample(readHeap bool) windowSample {
	s := windowSample{at: time.Now(), cpu: processCPU()}
	if readHeap {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.heapUse = ms.HeapInuse
	}
	return s
}

// window is the outcome of one measured (or warm-up) interval.
type window struct {
	logs    []*sessionLog
	start   time.Time
	samples []windowSample // slices+1 boundary readings
	slices  int
}

// runWindow drives the workload for d: one generator goroutine per
// client connection, each drawing from its own seeded stream. At rate 0
// the sessions are closed loops (next op when the previous one
// completed); at a rate they are open loops sharing it on a fixed
// schedule, and each op is timed from when it was due.
// Process CPU is read at the boundaries of `slices` equal time slices;
// readHeap additionally samples the heap there (the traced run's
// diagnostic: it stops the world, so the untraced run leaves it out).
func runWindow(inst *instance, gens []func() op, poolHash []uint64, rate float64, d time.Duration, slices int, readHeap bool) *window {
	w := &window{slices: slices, logs: make([]*sessionLog, len(gens)), start: time.Now()}
	sliceDur := d / time.Duration(slices)
	start, end := w.start, w.start.Add(d)

	var wg sync.WaitGroup
	for s := range gens {
		w.logs[s] = &sessionLog{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			log, gen, c := w.logs[s], gens[s], inst.clients[s]
			var period time.Duration
			var due, prevDone time.Time
			if rate > 0 {
				// Paced sessions start staggered across one period.
				period = time.Duration(float64(time.Second) * float64(len(gens)) / rate)
				due = start.Add(period * time.Duration(s) / time.Duration(len(gens)))
			}
			for {
				var from time.Time
				if rate > 0 {
					if !due.Before(end) {
						return
					}
					log.waited += waitUntil(due)
					if time.Now().After(end) {
						// The window closed with operations still due: the
						// generator has fallen a backlog behind. They were
						// offered and not served.
						missed := int(end.Sub(due)/period) + 1
						log.attempted += missed
						log.failed += missed - 1 // fail counts the last one
						log.fail("%d operations were still due when the window closed", missed)
						return
					}
					ready := due
					if prevDone.After(ready) {
						ready = prevDone // queued behind this connection's previous op: not the generator's lateness
					}
					log.lagNs = append(log.lagNs, clampNs(time.Since(ready)))
					from = due
					due = due.Add(period)
				} else {
					from = time.Now()
					if !from.Before(end) {
						return
					}
				}
				o := gen()
				done, firstRow, err := execOp(c, o, inst.def, poolHash, from)
				prevDone = done
				if err == nil && o.class == classInsert {
					// Acknowledged is acknowledged, inside the window or not:
					// the durability check needs every one of them.
					log.acked = append(log.acked, o.row)
				}
				if rate == 0 && !done.Before(end) {
					return // completed after the window closed: not part of it
				}
				log.attempted++
				if err != nil {
					log.fail("%s: %v", classNames[o.class], err)
					if brokenConn(err) {
						nc, derr := server.Dial(inst.addr)
						if derr != nil {
							return // the server is gone; what was attempted stays counted
						}
						c.Abandon()
						c, inst.clients[s] = nc, nc
					}
					continue
				}
				at := uint32(done.Sub(start) / time.Microsecond)
				log.ops[o.class].add(sample{at, clampNs(done.Sub(from))})
				if o.class == classStream {
					log.firstRow.add(sample{at, clampNs(firstRow)})
				}
			}
		}(s)
	}

	// The sampler is not a generator and sends nothing.
	w.samples = append(w.samples, takeSample(readHeap))
	for i := 1; i <= slices; i++ {
		time.Sleep(time.Until(start.Add(sliceDur * time.Duration(i))))
		w.samples = append(w.samples, takeSample(readHeap))
	}
	wg.Wait()
	return w
}

// Timings are reported the same way throughout: the samples, in order of
// completion, are cut into chunks of at least chunkMin (at most
// maxChunks chunks), the percentile is taken per chunk, and the reported
// value is the chunks' quiet decile; a chunk always holds enough samples
// for its percentile (ten beyond a p95).
//
// The quiet decile — the first decile of a cost, the ninth of a rate —
// is what the window's best tenth reached. The reference box has noisy
// neighbours: phases of seconds to minutes in which the same code runs
// 20–140 % slower, and nothing ever makes it run faster. A median over
// the window follows those phases as soon as they cover half of it; the
// quiet decile reads the undisturbed program as long as a tenth of the
// window is left alone.
const (
	chunkMin  = 200
	maxChunks = 40
	quiet     = 0.1
)

// quietCost and quietRate are the quiet decile of per-chunk or
// per-slice values.
func quietCost(v []float64) float64 { return quantile(sortedCopy(v), quiet) }
func quietRate(v []float64) float64 { return quantile(sortedCopy(v), 1-quiet) }

func chunkedQuantile(samples []sample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].atUs < samples[j].atUs })
	chunks := min(maxChunks, max(1, len(samples)/chunkMin))
	vals := make([]float64, chunks)
	for k := range vals {
		part := samples[k*len(samples)/chunks : (k+1)*len(samples)/chunks]
		ns := make([]uint32, len(part))
		for i, sm := range part {
			ns[i] = sm.latNs
		}
		vals[k] = quantile(nanosToMs(ns), q)
	}
	return quietCost(vals)
}

// classSamples merges the sessions' samples of one class.
func (w *window) classSamples(class opClass) []sample {
	var out []sample
	for _, l := range w.logs {
		for _, b := range l.ops[class].blocks {
			out = append(out, b...)
		}
	}
	return out
}

// latency is the class's chunked percentile in milliseconds (0 when the
// workload has no operation of the class).
func (w *window) latency(class opClass, q float64) float64 {
	return chunkedQuantile(w.classSamples(class), q)
}

func (w *window) streamFirstRow() float64 {
	var out []sample
	for _, l := range w.logs {
		for _, b := range l.firstRow.blocks {
			out = append(out, b...)
		}
	}
	return chunkedQuantile(out, 0.5)
}

// sliceOps counts the operations completed in each time slice.
func (w *window) sliceOps() []int {
	counts := make([]int, w.slices)
	for c := opClass(0); c < numClasses; c++ {
		for _, sm := range w.classSamples(c) {
			at := w.start.Add(time.Duration(sm.atUs) * time.Microsecond)
			// Boundaries are the sampler's actual reading times.
			k := sort.Search(w.slices, func(i int) bool { return at.Before(w.samples[i+1].at) })
			counts[min(k, w.slices-1)]++
		}
	}
	return counts
}

func (w *window) completed() int {
	n := 0
	for _, l := range w.logs {
		for c := range l.ops {
			n += l.ops[c].len()
		}
	}
	return n
}

func (w *window) attempted() (attempted, failed int) {
	for _, l := range w.logs {
		attempted += l.attempted
		failed += l.failed
	}
	return
}

func (w *window) failures() []string {
	var out []string
	for _, l := range w.logs {
		out = append(out, l.failures...)
	}
	return out
}

// throughput is the quiet decile over the time slices of operations
// completed per second.
func (w *window) throughput() float64 {
	var thr []float64
	for s, ops := range w.sliceOps() {
		thr = append(thr, float64(ops)/w.samples[s+1].at.Sub(w.samples[s].at).Seconds())
	}
	return quietRate(thr)
}

// cpuPerOp is the process CPU (user + system, harness included — it is
// one process) of the whole window per completed operation, in
// milliseconds, net of the time a paced generator spent polling the clock.
func (w *window) cpuPerOp() float64 {
	cpu := w.samples[len(w.samples)-1].cpu - w.samples[0].cpu
	for _, l := range w.logs {
		cpu -= l.waited
	}
	return float64(max(0, cpu)) / 1e6 / float64(max(1, w.completed()))
}

func (w *window) lagP95() float64 {
	var ns []uint32
	for _, l := range w.logs {
		ns = append(ns, l.lagNs...)
	}
	return quantile(nanosToMs(ns), 0.95)
}

// allLatP99 is the 99th percentile over every class's samples of the
// whole window, unchunked (ms): the diagnostic tail.
func (w *window) allLatP99() float64 {
	var ns []uint32
	for c := opClass(0); c < numClasses; c++ {
		for _, sm := range w.classSamples(c) {
			ns = append(ns, sm.latNs)
		}
	}
	return quantile(nanosToMs(ns), 0.99)
}

// worstLatency is the slowest operation of the class (ms).
func (w *window) worstLatency(class opClass) float64 {
	var worst uint32
	for _, sm := range w.classSamples(class) {
		worst = max(worst, sm.latNs)
	}
	return float64(worst) / 1e6
}

func (w *window) acked() []relation.Row {
	var out []relation.Row
	for _, l := range w.logs {
		out = append(out, l.acked...)
	}
	return out
}

// procStatusMB reads one memory field (VmRSS, VmHWM) of /proc/self/status.
func procStatusMB(field string) float64 {
	doc, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(doc), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// residentAfterGC is the resident set once a forced collection has
// returned what it freed to the OS: the memory the process holds on to
// at the end of the window. (The raw high-water mark depends on where
// the collector happened to be in its cycle — between 333 and 589 MB
// from one mixed_rw run to the next — so it is only the diagnostic
// runtime.peak_rss_mb.)
func residentAfterGC() float64 {
	debug.FreeOSMemory()
	return procStatusMB("VmRSS")
}
