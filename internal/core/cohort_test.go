package core

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// cohortSizes covers 1 (degenerate cohort), the wired defaults, primes that
// leave ragged tails over the query sets, and an over-default 17.
var cohortSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 17}

// sameSearchResult asserts byte identity: ids, distance bit patterns and
// hop counts must all match the solo run.
func sameSearchResult(t *testing.T, tag string, got, want SearchResult) {
	t.Helper()
	if got.Hops != want.Hops {
		t.Fatalf("%s: hops %d != %d", tag, got.Hops, want.Hops)
	}
	sameNeighborList(t, tag, got.Neighbors, want.Neighbors)
}

func sameNeighborList(t *testing.T, tag string, got, want []vecmath.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results != %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID ||
			math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
			t.Fatalf("%s result %d: (%d, %x) != (%d, %x)", tag, i,
				got[i].ID, math.Float32bits(got[i].Dist),
				want[i].ID, math.Float32bits(want[i].Dist))
		}
	}
}

// TestCohortParityFloat: every query of a fused float32 cohort must return
// exactly what its solo run returns, for every cohort size including ones
// that split the query set with a ragged tail.
func TestCohortParityFloat(t *testing.T) {
	idx, ds := buildTestNSG(t, 600, 16, 3)
	solo := NewSearchContext()
	cc := NewCohortContext()
	refs := make([]SearchResult, ds.Queries.Rows)
	for qi := range refs {
		r := idx.SearchWithHopsCtx(solo, ds.Queries.Row(qi), 10, 40, nil)
		refs[qi] = SearchResult{Neighbors: copyNeighbors(r.Neighbors), Hops: r.Hops}
	}
	queries := make([][]float32, ds.Queries.Rows)
	for qi := range queries {
		queries[qi] = ds.Queries.Row(qi)
	}
	for _, size := range cohortSizes {
		for lo := 0; lo < len(queries); lo += size {
			hi := min(lo+size, len(queries))
			res := idx.SearchCohortCtx(cc, queries[lo:hi], 10, 40, nil, nil)
			for i, r := range res {
				sameSearchResult(t, tname("float", size, lo+i), r, refs[lo+i])
			}
		}
	}
}

// TestCohortParityQuantized: the fused SQ8 cohort keeps the per-query exact
// rerank, so its results must match the solo quantized search bit for bit —
// on a relaid-out index, where public and internal ids differ.
func TestCohortParityQuantized(t *testing.T) {
	base := testBase(t, 800, 24, 1)
	idx := buildQuantTestNSG(t, base)
	idx.Relayout()
	if err := idx.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}
	queries := queryRows(testBase(t, 50, 24, 2))
	solo := NewSearchContext()
	cc := NewCohortContext()
	refs := make([]SearchResult, len(queries))
	for qi := range refs {
		r := idx.SearchWithHopsCtx(solo, queries[qi], 10, 40, nil)
		refs[qi] = SearchResult{Neighbors: copyNeighbors(r.Neighbors), Hops: r.Hops}
	}
	for _, size := range cohortSizes {
		for lo := 0; lo < len(queries); lo += size {
			hi := min(lo+size, len(queries))
			res := idx.SearchCohortCtx(cc, queries[lo:hi], 10, 40, nil, nil)
			for i, r := range res {
				sameSearchResult(t, tname("sq8", size, lo+i), r, refs[lo+i])
			}
		}
	}
}

// TestCohortParityTombstoned: with a dead set, the fused path must
// over-fetch and filter exactly like the solo SearchLiveCtx.
func TestCohortParityTombstoned(t *testing.T) {
	idx, ds := buildTestNSG(t, 600, 16, 4)
	dead := NewTombstones()
	for id := int32(0); id < 600; id += 37 {
		dead.Delete(id)
	}
	queries := queryRows(ds.Queries)
	solo := NewSearchContext()
	cc := NewCohortContext()
	refs := make([][]vecmath.Neighbor, len(queries))
	for qi := range refs {
		refs[qi] = copyNeighbors(idx.SearchLiveCtx(solo, queries[qi], 10, 40, dead, nil).Neighbors)
	}
	for _, size := range cohortSizes {
		for lo := 0; lo < len(queries); lo += size {
			hi := min(lo+size, len(queries))
			res := idx.SearchCohortCtx(cc, queries[lo:hi], 10, 40, dead, nil)
			for i, r := range res {
				sameNeighborList(t, tname("dead", size, lo+i), r.Neighbors, refs[lo+i])
				for _, nb := range r.Neighbors {
					if dead.Deleted(nb.ID) {
						t.Fatalf("tombstoned id %d returned", nb.ID)
					}
				}
			}
		}
	}
}

// TestCohortParityLiveDelta: the fused snapshot search must run the same
// per-query delta merge, tombstone filter and id handling as the solo
// SearchLiveCtx — float and quantized, with pending inserts and deletes.
func TestCohortParityLiveDelta(t *testing.T) {
	const n, dim = 500, 24
	all := testBase(t, n+40, dim, 9)
	frozen := vecmath.Matrix{Data: all.Data[:n*dim], Rows: n, Dim: dim}

	for _, quantize := range []bool{false, true} {
		idx := buildQuantTestNSG(t, frozen.Clone())
		if quantize {
			if err := idx.EnableQuantization(nil); err != nil {
				t.Fatal(err)
			}
		}
		snap := idx.Snapshot()

		// Pending rows n..n+40 as one delta chunk, ids continuing the
		// public sequence; a tombstone in both the snapshot and the delta.
		pend := vecmath.Matrix{Data: all.Data[n*dim:], Rows: 40, Dim: dim}
		ch := DeltaChunk{Vecs: pend, IDs: make([]int32, pend.Rows), Seq: make([]int32, pend.Rows)}
		for i := range ch.IDs {
			ch.IDs[i] = int32(n + i)
			ch.Seq[i] = int32(i)
		}
		if quantize {
			ch.Codes = idx.Quant.Q.Encode(pend)
		}
		delta := &Delta{Chunks: []DeltaChunk{ch}, Total: pend.Rows}
		dead := NewTombstones()
		dead.Delete(3)
		dead.Delete(int32(n + 5))
		lq := LiveQuery{Delta: delta, Dead: dead}

		queries := queryRows(testBase(t, 30, dim, 10))
		solo := NewSearchContext()
		cc := NewCohortContext()
		refs := make([]SearchResult, len(queries))
		for qi := range refs {
			r := snap.SearchLiveCtx(solo, queries[qi], 10, 40, nil, lq)
			refs[qi] = SearchResult{Neighbors: copyNeighbors(r.Neighbors), Hops: r.Hops}
		}
		for _, size := range cohortSizes {
			for lo := 0; lo < len(queries); lo += size {
				hi := min(lo+size, len(queries))
				res := snap.SearchLiveCohortCtx(cc, queries[lo:hi], 10, 40, nil, lq)
				for i, r := range res {
					sameSearchResult(t, tname(tagQ("live", quantize), size, lo+i), r, refs[lo+i])
				}
			}
		}
	}
}

// TestCohortEdgeCases: empty and single-query cohorts, and the dimension
// panic before any state is touched.
func TestCohortEdgeCases(t *testing.T) {
	idx, ds := buildTestNSG(t, 300, 16, 5)
	cc := NewCohortContext()
	if res := idx.SearchCohortCtx(cc, nil, 10, 40, nil, nil); len(res) != 0 {
		t.Fatalf("empty cohort returned %d results", len(res))
	}
	q := ds.Queries.Row(0)
	res := idx.SearchCohortCtx(cc, [][]float32{q}, 10, 40, nil, nil)
	solo := idx.SearchWithHopsCtx(NewSearchContext(), q, 10, 40, nil)
	sameSearchResult(t, "single", res[0], solo)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected dim-mismatch panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "dim") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	idx.SearchCohortCtx(cc, [][]float32{q, q[:5]}, 10, 40, nil, nil)
}

// TestCohortSharedGatherStats: the accounting must describe genuine reuse —
// rows loaded never exceed pair distances, and a multi-query cohort on
// clustered queries records some sharing.
func TestCohortSharedGatherStats(t *testing.T) {
	idx, ds := buildTestNSG(t, 600, 16, 6)
	queries := queryRows(ds.Queries)
	cc := NewCohortContext()
	cc.ResetStats()
	var counter vecmath.Counter
	idx.SearchCohortCtx(cc, queries[:8], 10, 40, nil, &counter)
	if cc.RowLoads == 0 || cc.PairDists < cc.RowLoads {
		t.Fatalf("implausible stats: rows %d pairs %d", cc.RowLoads, cc.PairDists)
	}
	if counter.Count() < cc.PairDists {
		t.Fatalf("counter %d < engine pair count %d", counter.Count(), cc.PairDists)
	}
}

func queryRows(m vecmath.Matrix) [][]float32 {
	qs := make([][]float32, m.Rows)
	for i := range qs {
		qs[i] = m.Row(i)
	}
	return qs
}

func tname(kind string, size, qi int) string {
	return kind + "/cohort=" + strconv.Itoa(size) + "/q=" + strconv.Itoa(qi)
}

func tagQ(kind string, quantize bool) string {
	if quantize {
		return kind + "-sq8"
	}
	return kind
}
