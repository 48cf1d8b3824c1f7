//go:build !amd64 || noasm

package engine

// Portable build: no assembly kernel, so no blocked store is ever built
// (newMaximaFilter, bnlCompiled) and every pass of the flat fragment
// compares on the flat record kernel; avx2Supported pins the runtime flag to false so
// SetAVX2Enabled(true) cannot enable a kernel that is not in the binary.
// The `noasm` build tag forces this file on amd64 too — the CI matrix runs
// the full suite under it.

// avx2Supported is always false without the assembly kernel.
const avx2Supported = false

// dominatingBlockAVX2 must never be reached on a portable build:
// newMaximaFilter checks the (permanently false) runtime flag first.
func dominatingBlockAVX2(cand *float64, d int, blocks *float64, nblocks int, strict0 int64) int64 {
	panic("engine: AVX2 kernel called on a build without assembly")
}
