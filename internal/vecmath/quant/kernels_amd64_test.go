//go:build amd64

package quant

import (
	"os"
	"testing"

	"repro/internal/vecmath"
)

// TestNoAVX2EnvHonored asserts the CI kernel-matrix contract: when
// NSG_NO_AVX2 is set, both packages with AVX2 kernels — vecmath (float32
// L2) and this one (SQ8/int4 codes) — must have dispatched to their scalar
// fallbacks at init. Both dispatch on the one probe, vecmath.AVX2 (this
// package keeps no flag of its own), so it being false proves both
// switched. The CI lane that force-disables the vector paths runs the
// kernel suites with the variable set; this test is what proves the
// kill-switch actually took, rather than the lane silently re-testing the
// AVX2 paths.
func TestNoAVX2EnvHonored(t *testing.T) {
	if os.Getenv("NSG_NO_AVX2") == "" {
		t.Skip("NSG_NO_AVX2 not set; dispatch follows hardware")
	}
	if vecmath.AVX2() {
		t.Fatal("NSG_NO_AVX2 is set but the AVX2 kernels are still dispatched")
	}
}
