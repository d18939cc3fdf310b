//go:build amd64

package vecmath

import "os"

// AVX2 dispatch for the float32 squared-L2 kernels, and the one CPU-feature
// probe the repository has: the quant code kernels dispatch on AVX2() too.
// The toolchain assembles the .s file directly, so this costs no
// dependency; support is probed once at init through CPUID/XGETBV (AVX2 in
// the CPU *and* YMM state enabled by the OS). The NSG_NO_AVX2 environment
// variable (any non-empty value) forces the scalar fallbacks at startup —
// the hook CI's kernel-matrix lane uses to run the portable paths on
// hardware where the vector paths would otherwise always win the dispatch.

var useAVX2 = hasAVX2() && os.Getenv("NSG_NO_AVX2") == ""

// l2AVX2 returns the squared distance over the first n elements of a and b,
// n a positive multiple of 8, summed in l2Generic's lane and reduction
// order. Implemented in kernels_amd64.s.
//
//go:noescape
func l2AVX2(a, b *float32, n int) float32

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if c&osxsaveBit == 0 || c&avxBit == 0 {
		return false
	}
	// The OS must have enabled XMM and YMM state saving.
	if eax, _ := xgetbv(); eax&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return b&avx2Bit != 0
}
