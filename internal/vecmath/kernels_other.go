//go:build !amd64

package vecmath

// Non-amd64 architectures run the portable scalar kernels.

const useAVX2 = false

// The AVX2 kernel is never called when useAVX2 is false; this stub keeps
// the dispatch in vecmath.go and batch.go architecture-independent.

func l2AVX2(a, b *float32, n int) float32 {
	panic("vecmath: AVX2 kernel called on non-amd64 build")
}
