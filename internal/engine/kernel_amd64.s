//go:build amd64 && !noasm

#include "textflag.h"

// func dominatingBlockAVX2(cand *float64, d int, blocks *float64, nblocks int, strict0 int64) int64
//
// The AVX2 dominance kernel of the blocked filter: tests one candidate's
// head-group scores (cand[0..d-1]) against nblocks blocks of stored
// maxima in the blocked column-major layout — block b holds
// filterBlock(=8) maxima, dimension k of lane j at blocks[(b*d+k)*8 + j],
// tail lanes padded with NaN. For each block the kernel keeps, per
// 4-lane half, a ≥-mask (alive), a >-mask (strict, seeded with strict0
// in every lane: 0 asks for a strictly better score somewhere, −1 also
// reports lanes that are merely ≥ everywhere) and an ==-mask (tied: the
// lane's score equals the candidate's on some dimension), ANDing/ORing
// per dimension with VCMPPD; the ordered-quiet predicates (imm 0x1D =
// GE_OQ, 0x1E = GT_OQ, 0x00 = EQ_OQ) evaluate false when either operand
// is NaN, which is exactly the Go semantics of `mv >= cv` — NaN (and the
// NaN pad lanes) block dominance. Early exit per block when no lane is
// alive (the common case: most maxima die on their first coordinate).
//
// Returns −1 when no block holds an alive-and-strict lane; otherwise the
// first such block's verdict, block<<16 | dom<<8 | tied: dom has a bit
// per alive-and-strict lane, tied the subset of them that tied on a
// dimension. The caller decides which of those lanes settle the
// candidate and resumes behind the block when none does. A window pass
// also calls it on its mirror store, with every score negated, to find
// the stored rows the candidate beats.
TEXT ·dominatingBlockAVX2(SB), NOSPLIT, $0-48
	MOVQ cand+0(FP), SI
	MOVQ d+8(FP), CX
	MOVQ blocks+16(FP), DI
	MOVQ nblocks+24(FP), DX
	VPBROADCASTQ strict0+32(FP), Y10
	MOVQ CX, R8
	SHLQ $6, R8               // R8 = d*64 bytes: the block stride
	XORQ R9, R9               // block index

blockloop:
	CMPQ R9, DX
	JGE  none
	VPCMPEQQ Y3, Y3, Y3       // alive lanes 0-3: all ones
	VPCMPEQQ Y4, Y4, Y4       // alive lanes 4-7
	VMOVDQA  Y10, Y5          // strict lanes 0-3: the seed
	VMOVDQA  Y10, Y6          // strict lanes 4-7
	VPXOR    Y8, Y8, Y8       // tied lanes 0-3: zero
	VPXOR    Y9, Y9, Y9       // tied lanes 4-7
	XORQ     R10, R10         // dimension index k
	MOVQ     DI, R11          // this block's column cursor

dimloop:
	CMPQ R10, CX
	JGE  dimdone
	VBROADCASTSD (SI)(R10*8), Y0 // cv = cand[k] in every lane
	VMOVUPD (R11), Y1            // maxima k-scores, lanes 0-3
	VMOVUPD 32(R11), Y2          // lanes 4-7
	VCMPPD  $0x1D, Y0, Y1, Y7    // mv >= cv (GE_OQ: NaN -> false)
	VPAND   Y7, Y3, Y3
	VCMPPD  $0x1D, Y0, Y2, Y7
	VPAND   Y7, Y4, Y4
	VCMPPD  $0x1E, Y0, Y1, Y7    // mv > cv (GT_OQ)
	VPOR    Y7, Y5, Y5
	VCMPPD  $0x1E, Y0, Y2, Y7
	VPOR    Y7, Y6, Y6
	VCMPPD  $0x00, Y0, Y1, Y7    // mv == cv (EQ_OQ)
	VPOR    Y7, Y8, Y8
	VCMPPD  $0x00, Y0, Y2, Y7
	VPOR    Y7, Y9, Y9
	VPOR    Y4, Y3, Y7           // any lane still alive?
	VPTEST  Y7, Y7
	JZ      nextblock            // no: this block cannot dominate
	INCQ    R10
	ADDQ    $64, R11             // next dimension's 8 scores
	JMP     dimloop

dimdone:
	VPAND  Y5, Y3, Y3            // dom = alive AND strict
	VPAND  Y6, Y4, Y4
	VPOR   Y4, Y3, Y7
	VPTEST Y7, Y7
	JZ     nextblock
	VPAND     Y8, Y3, Y8         // tied = dom AND tied
	VPAND     Y9, Y4, Y9
	VMOVMSKPD Y3, AX             // one bit per lane
	VMOVMSKPD Y4, BX
	SHLQ      $4, BX
	ORQ       BX, AX             // AX = dom, lanes 0-7
	VMOVMSKPD Y8, BX
	VMOVMSKPD Y9, R12
	SHLQ      $4, R12
	ORQ       R12, BX            // BX = tied, lanes 0-7
	SHLQ      $8, AX
	ORQ       BX, AX
	SHLQ      $16, R9
	ORQ       R9, AX
	MOVQ      AX, ret+40(FP)
	VZEROUPPER
	RET

nextblock:
	ADDQ R8, DI
	INCQ R9
	JMP  blockloop

none:
	MOVQ $-1, ret+40(FP)
	VZEROUPPER
	RET

// func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
//
// Raw CPUID leaf/subleaf query for the feature detection in
// kernel_amd64.go.
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
//
// XGETBV(XCR0): which vector register states the OS saves/restores.
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
