//go:build !amd64 || noasm

package engine

// Portable build: no assembly kernel, so no chain filter is ever built
// (newChainFilter) and chain products compare through the flat record
// kernel like the rest of the flat fragment; avx2Supported pins the
// runtime flag to false so SetAVX2Enabled(true) cannot enable a kernel
// that is not in the binary. The `noasm` build tag forces this file on
// amd64 too — the CI matrix runs the full suite under it.

// avx2Supported is always false without the assembly kernel.
const avx2Supported = false

// dominatedBlocksAVX2 must never be reached on a portable build:
// newChainFilter checks the (permanently false) runtime flag first.
func dominatedBlocksAVX2(cand *float64, d int, blocks *float64, nblocks int) int32 {
	panic("engine: AVX2 kernel called on a build without assembly")
}
