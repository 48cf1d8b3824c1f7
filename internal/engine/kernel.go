package engine

import (
	"os"
	"sync/atomic"
)

// Runtime dispatch for the blocked dominance kernel. The build decides
// what the binary carries (kernel_amd64.s behind `amd64 && !noasm`,
// nothing otherwise); this flag decides what runs. With the kernel off,
// every pass of the flat fragment — sorted filter, stream confirm loop,
// cross-shard fold, and the window passes that ran on the blocks and
// their mirror — compares on the flat record kernel (flat.go), where a
// window pass under a single-leaf head group compares whatever the flag
// says. Three ways to turn it off,
// strongest first: build with `-tags noasm` (the assembly is not in the
// binary), set PREFSQL_DISABLE_AVX2 in the environment (the process
// starts with the kernel off — a CI matrix leg), or call
// SetAVX2Enabled(false) at runtime (what the agreement tests toggle).

// avx2Active is the runtime switch newMaximaFilter reads.
var avx2Active atomic.Bool

func init() {
	avx2Active.Store(avx2Supported && os.Getenv("PREFSQL_DISABLE_AVX2") == "")
}

// AVX2Available reports whether this build and CPU can run the assembly
// dominance kernel at all, regardless of the runtime flag.
func AVX2Available() bool { return avx2Supported }

// AVX2Enabled reports whether passes over the flat fragment compare on
// the AVX2 score blocks (see dominanceFor for which ones). The choice is made when a pass starts, so
// toggling mid-stream does not change an in-flight evaluation.
func AVX2Enabled() bool { return avx2Active.Load() }

// SetAVX2Enabled force-enables or -disables the AVX2 dominance kernel at
// runtime and returns the previous setting. Enabling is a no-op on
// builds or CPUs without the kernel (the flag stays false); disabling
// always sticks. Tests use it to run the same workload through the
// assembly and the flat record kernel in one process.
func SetAVX2Enabled(on bool) bool {
	prev := avx2Active.Load()
	avx2Active.Store(on && avx2Supported)
	return prev
}
