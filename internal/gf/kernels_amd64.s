#include "textflag.h"

// The AVX2 bodies of ISA-L's gf_vect_mul and gf_vect_mad. Each source
// byte is split into its two nibbles and both are looked up with
// VPSHUFB in the coefficient's nibbleTable (Lo at offset 0, Hi at 16),
// broadcast to both 128-bit lanes, so one step multiplies 32 bytes. The
// Go callers hand over equal-length slices whose length is a multiple
// of 32; a length below 32 returns without touching memory.

// func mulAVX2(t *nibbleTable, dst, src []byte)
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	MOVQ t+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $5, CX
	JZ   mulDone
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MOVQ $0x0f, DX
	MOVQ DX, X2
	VPBROADCASTB X2, Y2

mulLoop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mulLoop
	VZEROUPPER

mulDone:
	RET

// func mulAddAVX2(t *nibbleTable, dst, src []byte)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ t+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $5, CX
	JZ   madDone
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MOVQ $0x0f, DX
	MOVQ DX, X2
	VPBROADCASTB X2, Y2

madLoop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     madLoop
	VZEROUPPER

madDone:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (xcr0 uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET
