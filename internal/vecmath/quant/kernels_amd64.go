//go:build amd64

package quant

// AVX2 kernels for the SQ8 and packed-int4 code distances. kernels.go and
// kernels4.go dispatch to them when vecmath.AVX2 reports the CPU has AVX2
// and NSG_NO_AVX2 is unset — the one feature probe the float32 kernels use
// too.

// l2Levels16AVX2 sums (levels[i]-code[i])² over i < n, n a multiple of 16.
// Implemented in kernels_amd64.s.
//
//go:noescape
func l2Levels16AVX2(levels *int16, code *uint8, n int) int32

// l2Levels4AVX2 sums (levels[i]-nibble(code,i))² over i < n, n a multiple
// of 32 dimensions (16 packed code bytes). Implemented in kernels_amd64.s.
//
//go:noescape
func l2Levels4AVX2(levels *int16, code *uint8, n int) int32
