package vecmath

import "fmt"

// Batch distance kernels. The direct kernel recomputes (a_i − b_i)² per
// pair; the decomposed kernel uses ‖q−x‖² = ‖q‖² + ‖x‖² − 2⟨q,x⟩ with
// precomputed row norms, trading one pass of preprocessing for a cheaper
// inner loop — the same trick SIMD implementations and BLAS-backed scans
// use. Both are exposed so the kernel choice can be ablated (the repro_why
// note for this paper calls out distance kernels as the awkward part of a
// Go port).

// RowNorms returns ‖row‖² for every row of m, for use with BatchL2Decomp.
func RowNorms(m Matrix) []float32 {
	out := make([]float32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		out[i] = Dot(row, row)
	}
	return out
}

// BatchL2 writes the squared distance from q to every row of m into out.
// out must have length m.Rows.
func BatchL2(q []float32, m Matrix, out []float32) {
	if len(out) != m.Rows {
		panic("vecmath: BatchL2 output length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		out[i] = L2(q, m.Row(i))
	}
}

// BatchL2Decomp writes the squared distance from q to every row of m into
// out using precomputed row norms (from RowNorms). Results can differ from
// BatchL2 in the last float32 bits (different summation order); ordering of
// neighbors is preserved to that tolerance.
func BatchL2Decomp(q []float32, m Matrix, norms, out []float32) {
	if len(out) != m.Rows || len(norms) != m.Rows {
		panic("vecmath: BatchL2Decomp length mismatch")
	}
	qq := Dot(q, q)
	for i := 0; i < m.Rows; i++ {
		d := qq + norms[i] - 2*Dot(q, m.Row(i))
		if d < 0 {
			d = 0 // float cancellation can dip below zero for near-duplicates
		}
		out[i] = d
	}
}

// L2ToRows is the batched gather kernel the construction and search loops
// use: it writes the squared distance from query to base row ids[i] into
// out[i] for every i. One call replaces len(ids) separate L2 calls, keeping
// the candidate-expansion loop free of per-distance call overhead. On AVX2
// hardware (see AVX2) each row goes straight to the AVX2 kernel, with the
// id and dimension checks done once for the whole call; either way every
// result is bit-identical to calling L2 per row. out must be at least
// len(ids) long. Panics if len(query) != base.Dim or an id is outside
// [0, base.Rows).
func L2ToRows(base Matrix, query []float32, ids []int32, out []float32) {
	if len(out) < len(ids) {
		panic("vecmath: L2ToRows output shorter than ids")
	}
	dim := base.Dim
	if len(query) != dim {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d != %d", len(query), dim))
	}
	checkRows(base, ids)
	data := base.Data
	if !useAVX2 || dim < 8 {
		for i, id := range ids {
			off := int(id) * dim
			out[i] = l2Generic(query, data[off:off+dim:off+dim])
		}
		return
	}
	n := dim &^ 7
	for i, id := range ids {
		off := int(id) * dim
		out[i] = l2Tail(l2AVX2(&query[0], &data[off], n), query, data[off:off+dim:off+dim], n)
	}
}

// checkRows panics unless m's backing slice holds m.Rows rows and every id
// names one of them. The AVX2 kernel reads rows through raw pointers, so
// this is what keeps bad input a panic rather than a stray read; the
// scalar path keeps the same contract.
func checkRows(m Matrix, ids []int32) {
	if m.Rows < 0 || len(m.Data) < m.Rows*m.Dim {
		panic(fmt.Sprintf("vecmath: matrix data holds %d floats, want %dx%d", len(m.Data), m.Rows, m.Dim))
	}
	for _, id := range ids {
		if uint(id) >= uint(m.Rows) {
			panic(fmt.Sprintf("vecmath: row id %d out of range [0,%d)", id, m.Rows))
		}
	}
}

// L2ToRows is the Counter-aware batched gather kernel: it computes the same
// distances as the package-level L2ToRows and records len(ids) distance
// evaluations in one counter update instead of one per row. A nil receiver
// is valid and counts nothing.
func (c *Counter) L2ToRows(base Matrix, query []float32, ids []int32, out []float32) {
	if c != nil {
		c.n += uint64(len(ids))
	}
	L2ToRows(base, query, ids, out)
}

// L2RowsToQueries is the multi-query gather kernel fused (cohort) search
// uses: out[q*len(ids)+i] = L2(queries.Row(q), base.Row(ids[i])). The loop
// runs ids-outer / queries-inner, so each gathered base row is loaded once
// and reused by every query while it is hot in cache — the traversal-side
// analogue of the bytes-per-hop saving quantization buys. Each distance is
// an individual L2 call, so it takes L2's AVX2 dispatch and bits. out must
// be at least queries.Rows*len(ids) long; queries.Dim must equal base.Dim,
// and every id must be in [0, base.Rows).
func L2RowsToQueries(base, queries Matrix, ids []int32, out []float32) {
	nq := queries.Rows
	if len(out) < nq*len(ids) {
		panic("vecmath: L2RowsToQueries output shorter than queries x ids")
	}
	if queries.Dim != base.Dim {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d != %d", queries.Dim, base.Dim))
	}
	checkRows(base, ids)
	checkRows(queries, nil)
	dim := base.Dim
	data := base.Data
	for i, id := range ids {
		off := int(id) * dim
		row := data[off : off+dim : off+dim]
		for q := 0; q < nq; q++ {
			out[q*len(ids)+i] = L2(queries.Row(q), row)
		}
	}
}

// L2RowsToQueries is the Counter-aware twin of the package-level kernel: it
// computes the same distance block and records queries.Rows*len(ids)
// distance evaluations in one counter update. A nil receiver is valid and
// counts nothing.
func (c *Counter) L2RowsToQueries(base, queries Matrix, ids []int32, out []float32) {
	if c != nil {
		c.n += uint64(queries.Rows) * uint64(len(ids))
	}
	L2RowsToQueries(base, queries, ids, out)
}
