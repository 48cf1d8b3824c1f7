package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/relation"
	"repro/internal/relation/store"
)

// durability is the outcome of the crash-image check of durable_paged.
type durability struct {
	recoveryS float64 // OpenStore of the crash image + verifying every acked row
	openMs    float64 // the OpenStore part alone
	err       error   // a lost acked row or a row nobody inserted: fails the run
}

// copyTree byte-copies a directory. The store is written with an fsync
// per WAL append, so every acknowledged insert is already flushed: the
// copy taken after the last ack — with no Close and no final checkpoint
// on the live store — is exactly the state a crash at that moment would
// leave on disk. (Killing the process would leave the OS cache intact,
// so the check copies the files instead.)
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// checkCrashImage copies the live store directory, reopens the copy and
// verifies that it holds the initial rows plus exactly the acknowledged
// inserts: every acked row present with its values, and no row beyond
// them. A failure here fails the whole run.
func checkCrashImage(inst *instance, sz *sizes, baseLen int, acked []relation.Row) durability {
	var d durability
	image := inst.storeDir + "-crash"
	defer os.RemoveAll(image)
	if d.err = copyTree(inst.storeDir, image); d.err != nil {
		return d
	}
	t0 := time.Now()
	st, err := relation.OpenStore(image, durableOptions(sz))
	if err != nil {
		d.err = fmt.Errorf("reopening the crash image: %w", err)
		return d
	}
	defer st.Close()
	d.openMs = float64(time.Since(t0)) / 1e6
	tbl, ok := st.Table(inst.def.insertInto())
	if !ok {
		d.err = fmt.Errorf("crash image has no table %q", inst.def.insertInto())
		return d
	}
	want := make(map[int64]string, len(acked))
	for _, row := range acked {
		want[row[0].(int64)] = rowKey(row)
	}
	rows := flatten(tbl).Rows()
	extra := 0
	for _, row := range rows {
		oid := row[0].(int64)
		if oid <= int64(baseLen) {
			continue // an initial row
		}
		key, isAcked := want[oid]
		if !isAcked || key != rowKey(row) {
			extra++
			continue
		}
		delete(want, oid)
	}
	d.recoveryS = time.Since(t0).Seconds()
	switch {
	case len(want) > 0:
		d.err = fmt.Errorf("%d of %d acknowledged inserts are missing from the crash image", len(want), len(acked))
	case extra > 0:
		d.err = fmt.Errorf("crash image holds %d rows that were never acknowledged", extra)
	case len(rows) != baseLen+len(acked):
		d.err = fmt.Errorf("crash image holds %d rows, want %d initial + %d acknowledged", len(rows), baseLen, len(acked))
	}
	return d
}

// shardEpochs reads each shard's current epoch number from its
// meta.json; the difference between two readings is the number of
// checkpoints completed in between.
func shardEpochs(storeDir, table string) []uint64 {
	metas, _ := filepath.Glob(filepath.Join(storeDir, table, "s*", "meta.json"))
	out := make([]uint64, len(metas))
	for i, path := range metas {
		doc, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var m struct {
			Epoch uint64 `json:"epoch"`
		}
		if json.Unmarshal(doc, &m) == nil {
			out[i] = m.Epoch
		}
	}
	return out
}

// epochBytes sums the sizes of the current epoch directories (segment
// and row-page files, without the WALs).
func epochBytes(storeDir, table string) int64 {
	dirs, _ := filepath.Glob(filepath.Join(storeDir, table, "s*", "ep*"))
	var n int64
	for _, d := range dirs {
		n += dirBytes(d)
	}
	return n
}

// userBytes is the size of the rows as user data: their tag-encoded
// form, which is also what one WAL record carries.
func userBytes(rows []relation.Row) int64 {
	var n int64
	for _, row := range rows {
		buf, err := store.AppendRow(nil, row)
		if err == nil {
			n += int64(len(buf))
		}
	}
	return n
}

// walFrameOverhead is the WAL's per-record framing (length + CRC).
const walFrameOverhead = 8

// amplification derives write and space amplification of the window.
// Bytes written = the WAL records of the acked rows (exact) + one full
// epoch image per completed checkpoint; a checkpoint's image size is
// interpolated between the epoch sizes before and after the window,
// since an epoch grows linearly with the rows folded into it. The
// figures are derived from file sizes, not from device counters: they
// repeat on any filesystem.
func amplification(acked []relation.Row, checkpoints int, epochBefore, epochAfter, storeBytes, liveUserBytes int64) (writeAmp, spaceAmp float64) {
	user := userBytes(acked)
	written := user + int64(len(acked))*walFrameOverhead
	for k := 1; k <= checkpoints; k++ {
		written += epochBefore + (epochAfter-epochBefore)*int64(k)/int64(checkpoints)
	}
	return ratio(float64(written), float64(user)), ratio(float64(storeBytes), float64(liveUserBytes))
}

// walAppendProbe appends n row records to a scratch WAL opened with the
// workload's flush policy and returns the per-append times in
// microseconds.
func walAppendProbe(dir string, rows []relation.Row, n int) ([]float64, error) {
	path := filepath.Join(dir, "probe.wal")
	defer os.Remove(path)
	w, _, err := store.OpenWAL(path, true)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		buf, err := store.AppendRow(nil, rows[i%len(rows)])
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.Append(buf); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}
