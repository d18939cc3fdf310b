package nsg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vecmath"
)

func TestSearchWithStats(t *testing.T) {
	vecs := randomVectors(800, 8, 50)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := randomVectors(1, 8, 51)[0]
	ids, dists, st := idx.SearchWithStats(q, 5, 40)
	if len(ids) != 5 || len(dists) != 5 {
		t.Fatalf("shape %d/%d", len(ids), len(dists))
	}
	if st.Hops <= 0 {
		t.Error("hops not recorded")
	}
	if st.DistanceComputations == 0 {
		t.Error("distance computations not recorded")
	}
	if st.DistanceComputations >= uint64(len(vecs)) {
		t.Errorf("counted %d >= n: search degraded to a scan", st.DistanceComputations)
	}
	// Results must match the plain search path.
	plainIDs, _ := idx.SearchWithPool(q, 5, 40)
	for i := range ids {
		if ids[i] != plainIDs[i] {
			t.Fatalf("stats path diverges from plain search: %v vs %v", ids, plainIDs)
		}
	}
}

func TestSearchWithStatsRespectsTombstones(t *testing.T) {
	vecs := randomVectors(400, 8, 52)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := vecs[9]
	ids, _, _ := idx.SearchWithStats(q, 1, 40)
	if ids[0] != 9 {
		t.Fatalf("self-query = %d", ids[0])
	}
	if err := idx.Delete(9); err != nil {
		t.Fatal(err)
	}
	ids, _, _ = idx.SearchWithStats(q, 1, 40)
	if ids[0] == 9 {
		t.Error("tombstoned id returned by SearchWithStats")
	}
}

// TestSearchWithStatsCountsOneSearchWithDeletes: with tombstones present,
// SearchWithStats must run one tombstone-aware search and report that
// search's own work — not the hops and distance count of a different,
// unfiltered traversal run beside it.
func TestSearchWithStatsCountsOneSearchWithDeletes(t *testing.T) {
	vecs := randomVectors(600, 8, 53)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// k + deletes > l, so the tombstone-aware search widens its pool and
	// does measurably different work from an unfiltered k, l search.
	for id := int32(0); id < 40; id++ {
		if err := idx.Delete(id * 7); err != nil {
			t.Fatal(err)
		}
	}
	const k, l = 5, 20
	for qi, q := range randomVectors(10, 8, 54) {
		ids, _, st := idx.SearchWithStats(q, k, l)

		var counter vecmath.Counter
		ctx := core.NewSearchContext()
		want := idx.inner.SearchLiveCtx(ctx, q, k, l, idx.dead, &counter)
		if st.DistanceComputations != counter.Count() {
			t.Fatalf("query %d: reported %d distance computations, one tombstone-aware search does %d",
				qi, st.DistanceComputations, counter.Count())
		}
		if st.Hops != want.Hops {
			t.Fatalf("query %d: reported %d hops, the search took %d", qi, st.Hops, want.Hops)
		}
		plain, _ := idx.SearchWithPool(q, k, l)
		if len(ids) != len(plain) {
			t.Fatalf("query %d: %d ids, SearchWithPool gives %d", qi, len(ids), len(plain))
		}
		for i := range ids {
			if ids[i] != plain[i] {
				t.Fatalf("query %d: stats path %v diverges from SearchWithPool %v", qi, ids, plain)
			}
		}
	}
}

// TestShardedFilteredStatsExactScans: SearchFilteredWithStats reports how
// many shards answered by exact scan. At 50% of 2400 rows per shard every
// shard walks; a 600-row price range leaves ~300 passing rows per shard,
// which every shard scans; an unfiltered search never scans.
func TestShardedFilteredStatsExactScans(t *testing.T) {
	ds := shardedTestData(t, 4800, 4)
	idx := buildShardedIndex(t, ds, 2)
	defer idx.Close()
	attachTestMetadata(t, idx.SetMetadata, 4800)
	q := ds.Queries.Row(0)

	_, _, st := idx.SearchWithStats(q, 10, 60)
	if st.ExactScans != 0 || st.Hops == 0 {
		t.Fatalf("unfiltered stats %+v, want hops > 0 and no exact scans", st)
	}
	for _, tc := range []struct {
		pred  Predicate
		exact bool
	}{
		{HasTag("tags", "even"), false},
		{Range("price", 0, 3*599), true},
	} {
		f, err := idx.CompileFilter(tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		ids, _, st := idx.SearchFilteredWithStats(q, 10, 60, f)
		if len(ids) != 10 || st.DistanceComputations == 0 {
			t.Fatalf("exact=%v: %d results, stats %+v", tc.exact, len(ids), st)
		}
		if tc.exact && (st.ExactScans != 2 || st.Hops != 0) {
			t.Fatalf("scan regime stats %+v, want 2 exact scans and no hops", st)
		}
		if !tc.exact && (st.ExactScans != 0 || st.Hops == 0) {
			t.Fatalf("walk regime stats %+v, want hops > 0 and no exact scans", st)
		}
	}
}
