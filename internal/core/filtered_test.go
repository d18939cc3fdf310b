package core

import (
	"testing"

	"repro/internal/vecmath"
)

// makeBits builds a Filter over n public ids passing those where keep(id).
func makeBits(n int, keep func(int32) bool) *Filter {
	f := &Filter{Bits: make([]uint64, (n+63)/64)}
	for id := 0; id < n; id++ {
		if keep(int32(id)) {
			f.Bits[id>>6] |= 1 << uint(id&63)
			f.Count++
		}
	}
	return f
}

// bruteRef is the reference: exact top-k among passing, non-dead public ids.
func bruteRef(x *NSG, q []float32, k int, flt *Filter, dead *Tombstones) []vecmath.Neighbor {
	var all []vecmath.Neighbor
	for pub := int32(0); int(pub) < x.Base.Rows; pub++ {
		if !bitTest(flt.Bits, pub) || (dead != nil && dead.Deleted(pub)) {
			continue
		}
		all = append(all, vecmath.Neighbor{ID: pub, Dist: vecmath.L2(q, x.Base.Row(int(x.InternalID(pub))))})
	}
	sortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func sortNeighbors(ns []vecmath.Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && vecmath.CompareNeighbors(ns[j], ns[j-1]) < 0; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func recallOf(got, want []vecmath.Neighbor) float64 {
	if len(want) == 0 {
		return 1
	}
	hit := 0
	for _, w := range want {
		for _, g := range got {
			if g.ID == w.ID {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(want))
}

// TestFilteredParity gates the filtered search against the exact
// brute-force-with-filter reference in both planner regimes, on a plain and
// a relaid index: 50% of 3000 points walks the graph (hops > 0), 10% is
// priced cheaper to scan (hops 0, exact equality with the reference).
func TestFilteredParity(t *testing.T) {
	const n = 3000
	base := testBase(t, n, 24, 3)
	plain := buildQuantTestNSG(t, base.Clone())
	relay := buildQuantTestNSG(t, base.Clone())
	relay.Relayout()

	queries := testBase(t, 30, 24, 4)
	const k, l = 10, 64
	filters := []struct {
		name      string
		flt       *Filter
		wantExact bool // scan regime: must equal the reference exactly
		minRecall float64
	}{
		{"sel50", makeBits(n, func(id int32) bool { return id%2 == 0 }), false, 0.95},
		{"sel10", makeBits(n, func(id int32) bool { return id%10 == 0 }), true, 1},
	}
	for _, idx := range []*NSG{plain, relay} {
		ctx := NewSearchContext()
		for _, tc := range filters {
			sum := 0.0
			for qi := 0; qi < queries.Rows; qi++ {
				q := queries.Row(qi)
				res := idx.SearchFilteredWithHopsCtx(ctx, q, k, l, nil, tc.flt, nil)
				if res.Exact != tc.wantExact || (res.Hops > 0) == tc.wantExact {
					t.Fatalf("%s q%d: exact %v hops %d, want the %s regime", tc.name, qi, res.Exact, res.Hops, regime(tc.wantExact))
				}
				got := res.Neighbors
				want := bruteRef(idx, q, k, tc.flt, nil)
				for _, nb := range got {
					if !bitTest(tc.flt.Bits, nb.ID) {
						t.Fatalf("%s: result id %d does not pass the filter", tc.name, nb.ID)
					}
				}
				if tc.wantExact {
					if len(got) != len(want) {
						t.Fatalf("%s q%d: got %d results, want %d", tc.name, qi, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
							t.Fatalf("%s q%d: result %d = %v, want %v", tc.name, qi, i, got[i], want[i])
						}
					}
				}
				sum += recallOf(got, want)
			}
			if avg := sum / float64(queries.Rows); avg < tc.minRecall {
				t.Errorf("%s: avg recall %.3f < %.2f", tc.name, avg, tc.minRecall)
			}
		}
	}
}

func regime(exact bool) string {
	if exact {
		return "scan"
	}
	return "walk"
}

// TestExactScanPlanner pins the planner's cost rule: the recall floor
// always scans, and above it the scan runs exactly when
// n/scanPassRows + count <= walkNavCost * navPoolSize.
func TestExactScanPlanner(t *testing.T) {
	cases := []struct {
		n, l, count, maxNav int
		scan                bool
	}{
		{6000, 60, 0, 0, true},        // empty: trivially scanned
		{6000, 60, 256, 0, true},      // recall floor (256)
		{6000, 100, 400, 0, true},     // recall floor (4l)
		{6000, 60, 3000, 0, false},    // 50%: 750+3000 > 10*120
		{6000, 60, 1500, 0, true},     // 25%: 750+1500 <= 10*240
		{6000, 60, 600, 0, true},      // 10%: 750+600 <= 10*600
		{50000, 60, 25000, 0, false},  // 50%: 6250+25000 > 10*120
		{50000, 60, 5000, 0, false},   // 10%: 6250+5000 > 10*600
		{50000, 60, 2500, 0, true},    // 5%: 6250+2500 <= 10*1200
		{50000, 60, 500, 0, true},     // 1%: nav clamps at 32l; 6250+500 <= 10*1920
		{50000, 60, 2500, 600, false}, // MaxNav caps the walk's pool: 8750 > 6000
		{1200, 64, 600, 0, true},      // the small-fixture 50%: 150+600 <= 10*128
		{3000, 64, 1500, 0, false},    // ... walks at 3000 points: 375+1500 > 1280
		{3000, 64, 300, 0, true},      // ... and scans at 10%: 375+300 <= 6400
	}
	for _, tc := range cases {
		flt := &Filter{Count: tc.count, MaxNav: tc.maxNav}
		if got := useExactScan(tc.n, tc.l, flt); got != tc.scan {
			t.Errorf("n=%d l=%d count=%d maxNav=%d: scan %v, want %v (nav %d)", tc.n, tc.l, tc.count, tc.maxNav, got, tc.scan, navPoolSize(tc.n, tc.l, flt))
		}
	}
}

// TestFilteredQuantParity runs the same gate through the SQ8 and int4
// two-phase paths: results pass the filter, distances are exact float32,
// recall stays near the reference.
func TestFilteredQuantParity(t *testing.T) {
	const n = 3000 // 50% of 3000 points walks (see TestExactScanPlanner)
	base := testBase(t, n, 24, 5)
	for _, mode := range []string{"sq8", "int4"} {
		idx := buildQuantTestNSG(t, base.Clone())
		var err error
		if mode == "sq8" {
			err = idx.EnableQuantization(nil)
		} else {
			err = idx.EnableQuantization4(nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		flt := makeBits(n, func(id int32) bool { return id%2 == 0 })
		queries := testBase(t, 30, 24, 6)
		ctx := NewSearchContext()
		sum := 0.0
		for qi := 0; qi < queries.Rows; qi++ {
			q := queries.Row(qi)
			res := idx.SearchFilteredWithHopsCtx(ctx, q, 10, 64, nil, flt, nil)
			if res.Exact || res.Hops == 0 {
				t.Fatalf("%s q%d: exact %v hops %d, want the walk", mode, qi, res.Exact, res.Hops)
			}
			got := res.Neighbors
			for _, nb := range got {
				if !bitTest(flt.Bits, nb.ID) {
					t.Fatalf("%s: result id %d does not pass the filter", mode, nb.ID)
				}
				if exact := vecmath.L2(q, idx.VectorByID(nb.ID)); nb.Dist != exact {
					t.Fatalf("%s: id %d dist %v != exact %v (rerank missing?)", mode, nb.ID, nb.Dist, exact)
				}
			}
			sum += recallOf(got, bruteRef(idx, q, 10, flt, nil))
		}
		if avg := sum / 30; avg < 0.9 {
			t.Errorf("%s: avg recall %.3f < 0.9", mode, avg)
		}
	}
}

// TestFilteredCohortMatchesSolo: the fused filtered cohort must be
// byte-identical to per-query solo filtered searches — ids, distances and
// hop counts — on the float and quantized paths, in both regimes.
func TestFilteredCohortMatchesSolo(t *testing.T) {
	const n = 3000
	base := testBase(t, n, 24, 7)
	queries := testBase(t, 16, 24, 8)
	qs := make([][]float32, queries.Rows)
	for i := range qs {
		qs[i] = queries.Row(i)
	}
	filters := []*Filter{
		makeBits(n, func(id int32) bool { return id%2 == 0 }),  // walk
		makeBits(n, func(id int32) bool { return id%16 == 0 }), // exact scan
	}
	for _, mode := range []string{"float", "sq8"} {
		idx := buildQuantTestNSG(t, base.Clone())
		if mode == "sq8" {
			if err := idx.EnableQuantization(nil); err != nil {
				t.Fatal(err)
			}
		}
		ctx := NewSearchContext()
		cc := NewCohortContext()
		for fi, flt := range filters {
			batch := idx.SearchCohortFilteredCtx(cc, qs, 10, 48, nil, flt, nil)
			for s, q := range qs {
				solo := idx.SearchFilteredWithHopsCtx(ctx, q, 10, 48, nil, flt, nil)
				if walk := fi == 0; solo.Exact == walk || (solo.Hops > 0) != walk {
					t.Fatalf("%s filter %d slot %d: exact %v hops %d, want the %s regime", mode, fi, s, solo.Exact, solo.Hops, regime(!walk))
				}
				if batch[s].Hops != solo.Hops || batch[s].Exact != solo.Exact {
					t.Fatalf("%s filter %d slot %d: hops %d != solo %d", mode, fi, s, batch[s].Hops, solo.Hops)
				}
				if len(batch[s].Neighbors) != len(solo.Neighbors) {
					t.Fatalf("%s filter %d slot %d: %d results != solo %d", mode, fi, s, len(batch[s].Neighbors), len(solo.Neighbors))
				}
				for i := range solo.Neighbors {
					if batch[s].Neighbors[i] != solo.Neighbors[i] {
						t.Fatalf("%s filter %d slot %d result %d: %v != solo %v", mode, fi, s, i, batch[s].Neighbors[i], solo.Neighbors[i])
					}
				}
			}
		}
	}
}

// TestFilteredTombstones: dead ids are treated as non-passing — never
// emitted, no over-fetch needed, and the pool refills from live points.
func TestFilteredTombstones(t *testing.T) {
	const n = 3000 // 50% of 3000 points walks
	base := testBase(t, n, 24, 9)
	idx := buildQuantTestNSG(t, base)
	flt := makeBits(n, func(id int32) bool { return id%2 == 0 })
	ctx := NewSearchContext()
	q := testBase(t, 1, 24, 10).Row(0)

	before := idx.SearchFilteredCtx(ctx, q, 10, 64, nil, flt, nil)
	dead := NewTombstones()
	for _, nb := range before[:5] {
		dead.Delete(nb.ID)
	}
	res := idx.SearchFilteredWithHopsCtx(ctx, q, 10, 64, dead, flt, nil)
	if res.Exact || res.Hops == 0 {
		t.Fatalf("exact %v hops %d, want the walk", res.Exact, res.Hops)
	}
	after := res.Neighbors
	if len(after) != 10 {
		t.Fatalf("got %d results, want 10 (pool should refill past tombstones)", len(after))
	}
	for _, nb := range after {
		if dead.Deleted(nb.ID) {
			t.Fatalf("tombstoned id %d emitted", nb.ID)
		}
		if !bitTest(flt.Bits, nb.ID) {
			t.Fatalf("non-passing id %d emitted", nb.ID)
		}
	}
}

// TestFilteredEmptyAndZero covers the degenerate filters: a zero-count
// filter short-circuits to an empty result, and a short bitmap fails closed
// for ids past its range.
func TestFilteredEmptyAndZero(t *testing.T) {
	base := testBase(t, 600, 16, 11)
	idx := buildQuantTestNSG(t, base)
	ctx := NewSearchContext()
	q := testBase(t, 1, 16, 12).Row(0)

	empty := &Filter{Bits: make([]uint64, (600+63)/64)}
	if got := idx.SearchFilteredCtx(ctx, q, 10, 32, nil, empty, nil); len(got) != 0 {
		t.Fatalf("zero-count filter returned %d results", len(got))
	}

	// Short bitmap: only ids < 64 can pass.
	short := &Filter{Bits: []uint64{^uint64(0)}, Count: 64}
	for _, nb := range idx.SearchFilteredCtx(ctx, q, 10, 32, nil, short, nil) {
		if nb.ID >= 64 {
			t.Fatalf("id %d passed a bitmap covering only [0,64)", nb.ID)
		}
	}

	// Nil filter degrades to the unfiltered search.
	got := idx.SearchFilteredCtx(ctx, q, 10, 32, nil, nil, nil)
	want := idx.Search(q, 10, 32, nil)
	if len(got) != len(want) {
		t.Fatalf("nil filter: %d results, unfiltered %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("nil filter result %d: %v != %v", i, got[i], want[i])
		}
	}

	// Empty cohort.
	cc := NewCohortContext()
	if res := idx.SearchCohortFilteredCtx(cc, nil, 10, 32, nil, empty, nil); len(res) != 0 {
		t.Fatal("empty cohort returned results")
	}
}

// TestLiveFilteredSnapshotDelta: the snapshot path merges only passing,
// live delta rows in both planner regimes. At 50% of 3000 points the walk
// runs and recall against the exact reference over (passing snapshot
// points ∪ passing delta points) stays high; at 5% the exact scan runs and
// equals that reference.
func TestLiveFilteredSnapshotDelta(t *testing.T) {
	base := testBase(t, 3000, 16, 13)
	idx := buildQuantTestNSG(t, base)
	snap := idx.Snapshot()
	n := base.Rows

	// Six pending rows with final ids 3000..3005; 3000 and 3004 pass both
	// filters, 3002 only the 50% one.
	dvecs := testBase(t, 6, 16, 14)
	ids := []int32{3000, 3001, 3002, 3003, 3004, 3005}
	seq := []int32{0, 1, 2, 3, 4, 5}
	delta := &Delta{Chunks: []DeltaChunk{{Vecs: dvecs, IDs: ids, Seq: seq, Off: 0}}, Total: 6}
	dead := NewTombstones()
	dead.Delete(3004) // a passing delta row that is tombstoned
	q := testBase(t, 1, 16, 15).Row(0)
	ctx := NewSearchContext()

	for _, tc := range []struct {
		every int32
		exact bool
	}{{2, false}, {20, true}} {
		flt := makeBits(n+6, func(id int32) bool { return id%tc.every == 0 })
		got := snap.SearchLiveFilteredCtx(ctx, q, 10, 64, nil, LiveQuery{Delta: delta, Dead: dead}, flt)
		if got.Exact != tc.exact || (got.Hops > 0) == tc.exact {
			t.Fatalf("1/%d pass: exact %v hops %d, want the %s regime", tc.every, got.Exact, got.Hops, regime(tc.exact))
		}

		// Reference: exact over passing snapshot ids plus passing live delta ids.
		var all []vecmath.Neighbor
		for pub := int32(0); int(pub) < n; pub++ {
			if bitTest(flt.Bits, pub) && !dead.Deleted(pub) {
				all = append(all, vecmath.Neighbor{ID: pub, Dist: vecmath.L2(q, snap.Vector(pub))})
			}
		}
		for j, id := range ids {
			if bitTest(flt.Bits, id) && !dead.Deleted(id) {
				all = append(all, vecmath.Neighbor{ID: id, Dist: vecmath.L2(q, dvecs.Row(j))})
			}
		}
		sortNeighbors(all)
		want := all[:10]

		for _, g := range got.Neighbors {
			if g.ID == 3004 {
				t.Fatal("tombstoned delta id 3004 emitted")
			}
			if !bitTest(flt.Bits, g.ID) {
				t.Fatalf("non-passing id %d emitted", g.ID)
			}
		}
		if tc.exact {
			for i := range want {
				if i >= len(got.Neighbors) || got.Neighbors[i] != want[i] {
					t.Fatalf("exact scan result %d: %v, want %v", i, got.Neighbors, want)
				}
			}
		} else if r := recallOf(got.Neighbors, want); r < 0.9 {
			t.Errorf("live filtered recall %.2f < 0.9", r)
		}
	}
}
