//go:build amd64

package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The AVX2 kernels promise the scalar kernels' exact bits, not just close
// values: the tests below run each public kernel under both dispatches on
// the same inputs and compare with math.Float32bits. They flip useAVX2
// directly, so they cover the vector path even when NSG_NO_AVX2 is set, as
// long as the CPU has AVX2.

// dispatchPair returns f's output under the scalar dispatch and under the
// AVX2 dispatch, restoring the startup choice afterwards.
func dispatchPair(t testing.TB, f func() []float32) (scalar, avx2 []float32) {
	t.Helper()
	if !hasAVX2() {
		t.Skip("CPU has no AVX2")
	}
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = false
	scalar = f()
	useAVX2 = true
	avx2 = f()
	return scalar, avx2
}

// sameBits reports bit equality, counting any two NaNs as equal: a NaN's
// payload depends on which operand the hardware propagates and carries no
// distance.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func requireSameBits(t testing.TB, what string, scalar, avx2 []float32) {
	t.Helper()
	if len(scalar) != len(avx2) {
		t.Fatalf("%s: %d scalar results, %d AVX2 results", what, len(scalar), len(avx2))
	}
	for i := range scalar {
		if !sameBits(scalar[i], avx2[i]) {
			t.Fatalf("%s: result %d: scalar %g (%#08x) != AVX2 %g (%#08x)",
				what, i, scalar[i], math.Float32bits(scalar[i]), avx2[i], math.Float32bits(avx2[i]))
		}
	}
}

// l2Kernels runs all three kernels on one input set and returns every
// result: L2(query 0, row 0), the L2ToRows gather for query 0, and the
// L2RowsToQueries block for all queries.
func l2Kernels(base, queries Matrix, ids []int32) []float32 {
	out := []float32{L2(queries.Row(0), base.Row(0))}
	rows := make([]float32, len(ids))
	L2ToRows(base, queries.Row(0), ids, rows)
	block := make([]float32, queries.Rows*len(ids))
	L2RowsToQueries(base, queries, ids, block)
	return append(append(out, rows...), block...)
}

// TestL2KernelsBitIdentical sweeps dims 1..33 (every dim%8 tail, below and
// above one 8-lane block) plus serving dims, and id and query counts 0..9,
// on non-integer floats so every subtract, square and add rounds.
func TestL2KernelsBitIdentical(t *testing.T) {
	dims := make([]int, 0, 40)
	for d := 1; d <= 33; d++ {
		dims = append(dims, d)
	}
	dims = append(dims, 64, 100, 128, 960)
	rng := rand.New(rand.NewSource(41))
	for _, dim := range dims {
		base := randomMatrix(13, dim, int64(dim))
		for n := 0; n <= 9; n++ {
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(rng.Intn(base.Rows))
			}
			queries := randomMatrix(max(n, 1), dim, int64(1000*dim+n))
			scalar, avx2 := dispatchPair(t, func() []float32 { return l2Kernels(base, queries, ids) })
			requireSameBits(t, fmt.Sprintf("dim %d, %d ids", dim, n), scalar, avx2)
		}
	}
}

// TestL2KernelsRejectBadInput: bad ids and dims panic under both
// dispatches before any row is read — the AVX2 kernel reads through raw
// pointers, so this guard is all that keeps it in bounds.
func TestL2KernelsRejectBadInput(t *testing.T) {
	base := randomMatrix(6, 16, 51)
	queries := randomMatrix(2, 16, 52)
	q := queries.Row(0)
	out := make([]float32, 16)
	view := base.Slice(0, 3) // rows 3..5 still sit in view.Data's capacity
	cases := []struct {
		name string
		f    func()
	}{
		{"L2 dim mismatch", func() { L2(q, q[:15]) }},
		{"L2ToRows negative id", func() { L2ToRows(base, q, []int32{0, -1}, out) }},
		{"L2ToRows id == rows", func() { L2ToRows(base, q, []int32{6}, out) }},
		{"L2ToRows id past a sliced view", func() { L2ToRows(view, q, []int32{1, 2, 3, 4}, out) }},
		{"L2ToRows huge id", func() { L2ToRows(base, q, []int32{math.MaxInt32}, out) }},
		{"L2ToRows query dim mismatch", func() { L2ToRows(base, q[:15], []int32{0}, out) }},
		{"L2ToRows short data", func() { L2ToRows(Matrix{Data: base.Data[:40], Rows: 6, Dim: 16}, q, []int32{0}, out) }},
		{"L2RowsToQueries negative id", func() { L2RowsToQueries(base, queries, []int32{-1}, out) }},
		{"L2RowsToQueries id == rows", func() { L2RowsToQueries(base, queries, []int32{0, 6}, out) }},
		{"L2RowsToQueries query dim mismatch", func() { L2RowsToQueries(base, randomMatrix(2, 15, 53), []int32{0}, out) }},
		{"L2RowsToQueries short query data", func() {
			L2RowsToQueries(base, Matrix{Data: queries.Data[:20], Rows: 2, Dim: 16}, []int32{0}, out)
		}},
	}
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, avx := range []bool{false, true} {
		if avx && !hasAVX2() {
			continue
		}
		useAVX2 = avx
		for _, c := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("avx2=%v: %s: no panic", avx, c.name)
					}
				}()
				c.f()
			}()
		}
	}
}

// FuzzL2Kernels checks that any dim, id count and float32 values give the
// same bits from the AVX2 and scalar kernels. Values start as seeded
// non-integer floats; raw overwrites the leading ones with arbitrary bit
// patterns (infinities, NaNs, subnormals, huge magnitudes).
func FuzzL2Kernels(f *testing.F) {
	f.Add(uint16(128), uint8(9), int64(1), []byte{})
	f.Add(uint16(13), uint8(5), int64(2), []byte{0, 0, 0x80, 0x7f, 1, 0, 0, 0, 0xff, 0xff, 0x7f, 0x7f})
	f.Add(uint16(7), uint8(1), int64(3), []byte{0, 0, 0xc0, 0x7f})
	f.Fuzz(func(t *testing.T, dimIn uint16, count uint8, seed int64, raw []byte) {
		dim := 1 + int(dimIn)%1024
		n := int(count) % 10
		rng := rand.New(rand.NewSource(seed))
		const rows = 7
		base := NewMatrix(rows, dim)
		queries := NewMatrix(max(n, 1), dim)
		vals := make([]float32, len(queries.Data)+len(base.Data))
		for i := range vals {
			vals[i] = rng.Float32()*20 - 10
		}
		for i := 0; i+4 <= len(raw) && i/4 < len(vals); i += 4 {
			vals[i/4] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
		}
		copy(queries.Data, vals)
		copy(base.Data, vals[len(queries.Data):])
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(rng.Intn(rows))
		}
		scalar, avx2 := dispatchPair(t, func() []float32 { return l2Kernels(base, queries, ids) })
		requireSameBits(t, fmt.Sprintf("dim %d, %d ids", dim, n), scalar, avx2)
	})
}
