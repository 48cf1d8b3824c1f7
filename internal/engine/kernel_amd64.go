//go:build amd64 && !noasm

package engine

// The assembly side of the blocked dominance kernel (see kernel_amd64.s)
// plus the CPU feature detection that decides at init whether the kernel
// is usable on this machine. Without it the passes that use it compare on
// the flat record kernel (flat.go); the portable masked model in
// kernel_test.go is the oracle the agreement tests hold the assembly to.

// dominatingBlockAVX2 scans the blocked column-major store for the first
// block with a lane whose scores are ≥ the candidate's on every dimension
// and (strict0 = 0) > on one, and returns block<<16 | dom<<8 | tied — a
// bit per such lane, and per such lane that tied on a dimension — or −1;
// see kernel_amd64.s for the layout and NaN contract.
//
//go:noescape
func dominatingBlockAVX2(cand *float64, d int, blocks *float64, nblocks int, strict0 int64) int64

// cpuidex runs CPUID with the given leaf and subleaf.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

// avx2Supported reports whether this build and CPU can run the assembly
// kernel: the binary carries it (build tags got us here) and the CPU
// advertises AVX2 with OS-saved YMM state.
var avx2Supported = detectAVX2()

// detectAVX2 is the standard three-step AVX2 probe: OSXSAVE+AVX in
// CPUID.1:ECX, XMM+YMM state enabled in XCR0, AVX2 in CPUID.7.0:EBX.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // XMM and YMM state both OS-managed
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}
