package nsg

import (
	"repro/internal/core"
	"repro/internal/vecmath"
)

// SearchStats reports the work one query performed, for capacity planning
// and parameter tuning: Hops is the number of greedy expansions (the
// paper's path length l in its o·l cost model) and DistanceComputations the
// number of exact distance evaluations.
type SearchStats struct {
	Hops                 int
	DistanceComputations uint64
}

// SearchWithStats is SearchWithPool plus per-query work accounting.
func (x *Index) SearchWithStats(query []float32, k, l int) ([]int32, []float32, SearchStats) {
	var counter vecmath.Counter
	ctx := x.getCtx()
	var res core.SearchResult
	if h := x.live.Load(); h != nil {
		res = h.SearchCtx(ctx, query, k, l, &counter)
	} else {
		res = x.inner.SearchLiveCtx(ctx, query, k, l, x.dead, &counter)
	}
	ids, dists := extractResults(res.Neighbors)
	x.putCtx(ctx)
	return ids, dists, SearchStats{Hops: res.Hops, DistanceComputations: counter.Count()}
}
