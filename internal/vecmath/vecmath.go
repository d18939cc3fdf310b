// Package vecmath provides the low-level float32 vector primitives used by
// every index in this repository: squared Euclidean distance, batch
// distances, centroids, norms and small top-k helpers.
//
// The paper's reference implementation uses SIMD intrinsics. Here the three
// float32 squared-L2 kernels (L2, L2ToRows, L2RowsToQueries) run AVX2
// assembly on amd64 hardware that has it, and an 8-way unrolled scalar loop
// elsewhere or when NSG_NO_AVX2 is set. Both paths return the same bits, so
// the dispatch never changes a result (see kernels_amd64.s).
package vecmath

import (
	"fmt"
	"math"
)

// L2 returns the squared Euclidean distance between a and b.
//
// The squared distance is used everywhere in this repository: it is monotone
// in the true distance, so nearest-neighbor order is unchanged and the sqrt
// is skipped. Panics if the slices have different lengths.
func L2(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d != %d", len(a), len(b)))
	}
	if useAVX2 && len(a) >= 8 {
		n := len(a) &^ 7
		return l2Tail(l2AVX2(&a[0], &b[0], n), a, b, n)
	}
	return l2Generic(a, b)
}

// AVX2 reports whether the float32 kernels here, and the quant code kernels
// that share this probe, dispatch to their AVX2 versions: true on amd64
// hardware with AVX2 unless NSG_NO_AVX2 is set.
func AVX2() bool { return useAVX2 }

// l2Generic is the portable scalar kernel and the reference the AVX2 path
// reproduces bit for bit: eight lane sums s0..s7, folded in a fixed order,
// then the len%8 tail. a and b must have equal lengths.
func l2Generic(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		d4 := a[i+4] - b[i+4]
		d5 := a[i+5] - b[i+5]
		d6 := a[i+6] - b[i+6]
		d7 := a[i+7] - b[i+7]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		s4 += d4 * d4
		s5 += d5 * d5
		s6 += d6 * d6
		s7 += d7 * d7
	}
	s := (s0 + s1) + (s2 + s3) + (s4 + s5) + (s6 + s7)
	return l2Tail(s, a, b, i)
}

// l2Tail adds the squared differences of a[n:] and b[n:] to s one element
// at a time: l2Generic's tail after its lane fold.
func l2Tail(s float32, a, b []float32, n int) float32 {
	for i := n; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// L2True returns the (non-squared) Euclidean distance between a and b.
func L2True(a, b []float32) float32 {
	return float32(math.Sqrt(float64(L2(a, b))))
}

// Dot returns the inner product of a and b. Panics on dimension mismatch.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// Normalize scales a in place to unit Euclidean norm. Zero vectors are left
// unchanged.
func Normalize(a []float32) {
	n := Norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
}

// Centroid returns the arithmetic mean of the rows of a Matrix. It
// accumulates in float64 so large datasets do not lose precision. Panics if
// the matrix has no rows.
func Centroid(m Matrix) []float32 {
	if m.Rows == 0 {
		panic("vecmath: centroid of empty matrix")
	}
	acc := make([]float64, m.Dim)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			acc[j] += float64(v)
		}
	}
	out := make([]float32, m.Dim)
	inv := 1 / float64(m.Rows)
	for j, v := range acc {
		out[j] = float32(v * inv)
	}
	return out
}

// Matrix is a dense row-major collection of vectors sharing one backing
// slice, giving the contiguous memory layout that graph traversal relies on.
type Matrix struct {
	Data []float32 // len == Rows*Dim
	Rows int
	Dim  int
}

// NewMatrix allocates a zeroed rows×dim matrix.
func NewMatrix(rows, dim int) Matrix {
	if rows < 0 || dim <= 0 {
		panic(fmt.Sprintf("vecmath: invalid matrix shape %dx%d", rows, dim))
	}
	return Matrix{Data: make([]float32, rows*dim), Rows: rows, Dim: dim}
}

// MatrixFromSlices copies vecs into a contiguous Matrix. All vectors must
// share the same dimension.
func MatrixFromSlices(vecs [][]float32) Matrix {
	if len(vecs) == 0 {
		panic("vecmath: empty vector set")
	}
	dim := len(vecs[0])
	m := NewMatrix(len(vecs), dim)
	for i, v := range vecs {
		if len(v) != dim {
			panic(fmt.Sprintf("vecmath: ragged vectors: row %d has dim %d, want %d", i, len(v), dim))
		}
		copy(m.Row(i), v)
	}
	return m
}

// Row returns the i-th vector as a subslice of the backing array. The caller
// must not resize it; writes are visible in the matrix.
func (m Matrix) Row(i int) []float32 {
	return m.Data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}

// Slice returns a view of rows [lo,hi) sharing the same backing array.
func (m Matrix) Slice(lo, hi int) Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("vecmath: slice [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	return Matrix{Data: m.Data[lo*m.Dim : hi*m.Dim], Rows: hi - lo, Dim: m.Dim}
}

// Clone returns a deep copy of the matrix.
func (m Matrix) Clone() Matrix {
	c := NewMatrix(m.Rows, m.Dim)
	copy(c.Data, m.Data)
	return c
}

// Counter counts distance computations. The paper's Figure 8 compares
// methods by the number of distance evaluations needed to reach a target
// precision; all searchers route their distance calls through a Counter so
// that figure can be reproduced exactly. A nil *Counter is valid and counts
// nothing.
type Counter struct {
	n uint64
}

// L2 computes the squared distance and increments the counter.
func (c *Counter) L2(a, b []float32) float32 {
	if c != nil {
		c.n++
	}
	return L2(a, b)
}

// AddN records n distance evaluations that happened outside the L2 helper —
// quantized (ADC) candidate scoring in IVFPQ counts each scanned code as one
// evaluation, matching how the paper's Figure 8 counts "distance
// calculations" for Faiss.
func (c *Counter) AddN(n uint64) {
	if c != nil {
		c.n += n
	}
}

// Count returns the number of distance computations recorded so far.
func (c *Counter) Count() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c != nil {
		c.n = 0
	}
}
