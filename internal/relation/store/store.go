// Package store is the disk mechanics under relation's persistent
// catalog: a tagged row codec shared by the write-ahead log, the row
// pages and the wire protocol's frames, a CRC-framed WAL with torn-tail
// recovery, fixed-size columnar segment files served zero-copy through
// mmap (with a portable heap fallback), and a small buffer pool (page
// table, pin/unpin, clock eviction, configurable byte capacity) caching
// row pages as their CRC-verified encoded bytes plus a row-offset table.
// A point read decodes the one row it asks for out of a resident page,
// so the pool holds no boxed values: its frames are pointer-free for the
// collector and its byte budget is the heap it really holds.
//
// The package is deliberately below relation in the import graph — it
// knows pref.Value and nothing else — so relation can orchestrate
// catalogs, generations and snapshots on top of it without a cycle.
// Layout on disk is little-endian throughout; the mmap fast path reads
// segment files through unsafe typed views and is only correct on
// little-endian hosts (everything this repo targets — the AVX2 kernel
// is amd64-only anyway). Big-endian ports must set the heap fallback.
package store

// MaxWALRecord bounds one WAL record's payload so a corrupt length
// prefix cannot drive a multi-gigabyte allocation during replay.
const MaxWALRecord = 1 << 26
