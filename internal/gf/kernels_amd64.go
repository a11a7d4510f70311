package gf

// The amd64 bodies of the single-coefficient kernels live in
// kernels_amd64.s. Init installs them only on a CPU with AVX2 whose OS
// saves the YMM registers; otherwise the word loops run alone, as on
// every other architecture.

//go:noescape
func mulAVX2(t *nibbleTable, dst, src []byte)

//go:noescape
func mulAddAVX2(t *nibbleTable, dst, src []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (xcr0 uint32)

func init() {
	if hasAVX2() {
		mulVec, mulAddVec = mulAVX2, mulAddAVX2
	}
}

// hasAVX2 reports CPUID.(EAX=7,ECX=0):EBX.AVX2, after checking that the
// OS enabled the YMM state: CPUID.1:ECX.OSXSAVE and AVX set, and XCR0's
// SSE and AVX bits set.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 || xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
