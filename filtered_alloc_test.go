//go:build !race

// The filtered-search allocation gate lives behind !race with the other
// alloc budgets: the race detector defeats sync.Pool caching, making the
// counts meaningless there.

package nsg

import (
	"testing"

	"repro/internal/core"
)

// TestFilteredSearchZeroAlloc: a warm filtered search with a reused context
// must allocate nothing in either planner regime — the filter bitmap is
// compiled once up front, the nav pool and the scan's id list live in the
// context scratch, and through the public pool only the two result slices
// remain.
func TestFilteredSearchZeroAlloc(t *testing.T) {
	ds := shardedTestData(t, 1500, 20)
	idx := buildMappedPublicIndex(t, ds, QuantNone)
	attachTestMetadata(t, idx.SetMetadata, idx.Len())

	const k, l = 10, 40
	for _, tc := range []struct {
		pred  Predicate
		exact bool
	}{
		// 750 of 1500 pass: the walk (1500/8 + 750 > 10 * 2l).
		{HasTag("tags", "even"), false},
		// 300 pass: the exact scan (1500/8 + 300 <= 10 * 5l).
		{Eq("category", "cat2"), true},
	} {
		f, err := idx.CompileFilter(tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		ctx := core.NewSearchContext()
		for i := 0; i < 8; i++ { // warm every context buffer
			idx.inner.SearchFilteredWithHopsCtx(ctx, ds.Queries.Row(i%ds.Queries.Rows), k, l, nil, &f.inner, nil)
		}
		qi := 0
		allocs := testing.AllocsPerRun(200, func() {
			res := idx.inner.SearchFilteredWithHopsCtx(ctx, ds.Queries.Row(qi%ds.Queries.Rows), k, l, nil, &f.inner, nil)
			if len(res.Neighbors) != k || res.Exact != tc.exact || (res.Hops > 0) == tc.exact {
				t.Fatalf("%d results, exact %v, hops %d; want %d, exact %v", len(res.Neighbors), res.Exact, res.Hops, k, tc.exact)
			}
			qi++
		})
		if allocs != 0 {
			t.Fatalf("exact=%v: warm filtered ctx-reuse search allocated %.2f times per query, want 0", tc.exact, allocs)
		}

		for i := 0; i < 8; i++ { // warm the public context pool
			idx.SearchFilteredWithPool(ds.Queries.Row(i%ds.Queries.Rows), k, l, f)
		}
		allocs = testing.AllocsPerRun(200, func() {
			ids, dists := idx.SearchFilteredWithPool(ds.Queries.Row(qi%ds.Queries.Rows), k, l, f)
			if len(ids) != k || len(dists) != k {
				t.Fatal("short result")
			}
			qi++
		})
		if allocs > 2.5 {
			t.Fatalf("exact=%v: public filtered SearchFilteredWithPool allocated %.2f times per query, want 2 (result slices only)", tc.exact, allocs)
		}
	}
}
