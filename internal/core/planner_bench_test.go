package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// BenchmarkFilteredPlanner is the filtered-search planner's sweep: for each
// (n, representation, selectivity) cell it times the two-pool walk, the
// exact scan and the path useExactScan picks, one query per op, at k=10,
// l=60 on a BFS-relaid SIFT-like index. n=6000 is one shard of the
// two-shard serving benchmark. Passing ids are a uniform random subset.
// Run with
//
//	go test ./internal/core -run '^$' -bench FilteredPlanner -benchtime 300x
//
// The n=50000 cells build a 50k-point graph first (about a minute on two
// cores); -short skips them.
func BenchmarkFilteredPlanner(b *testing.B) {
	const k, l, nq = 10, 60, 100
	for _, n := range []int{6000, 50000} {
		if n > 6000 && testing.Short() {
			continue
		}
		var float, sq8 *NSG
		var queries vecmath.Matrix
		build := func(b *testing.B) {
			if float != nil {
				return
			}
			ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: nq, GTK: 1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			kp := knngraph.DefaultParams(20)
			knn, err := knngraph.BuildNNDescent(ds.Base, kp)
			if err != nil {
				b.Fatal(err)
			}
			for _, quantize := range []bool{false, true} {
				x, _, err := NSGBuild(knn, ds.Base.Clone(), BuildParams{L: 50, M: 30, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				x.Relayout()
				if quantize {
					if err := x.EnableQuantization(nil); err != nil {
						b.Fatal(err)
					}
					sq8 = x
				} else {
					float = x
				}
			}
			queries = ds.Queries
		}
		for _, mode := range []string{"float32", "sq8"} {
			for _, pct := range []float64{50, 25, 10, 5, 2, 1} {
				rng := rand.New(rand.NewSource(int64(pct * 10)))
				flt := makeBits(n, func(int32) bool { return rng.Float64()*100 < pct })
				for _, path := range []string{"walk", "scan", "plan"} {
					b.Run(fmt.Sprintf("n=%d/%s/sel=%g/%s", n, mode, pct, path), func(b *testing.B) {
						build(b)
						x := float
						if mode == "sq8" {
							x = sq8
						}
						scan := path == "scan" || (path == "plan" && useExactScan(n, l, flt))
						ctx := NewSearchContext()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							res := x.searchFiltered(ctx, queries.Row(i%nq), k, l, nil, flt, nil, scan)
							if len(res.Neighbors) != k || res.Exact != scan {
								b.Fatalf("%d results, exact %v, want %d, %v", len(res.Neighbors), res.Exact, k, scan)
							}
						}
					})
				}
			}
		}
	}
}
