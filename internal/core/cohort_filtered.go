package core

import (
	"repro/internal/graphutil"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// This file threads the filtered two-pool traversal (filtered.go) through
// the fused cohort engine (cohort.go). The sharing story is unchanged — per
// round the active queries' fresh neighbors are deduplicated into one union
// and scored with the fused block kernels — but each slot routes scored
// nodes into its main or navigation pool by the shared pass test, and the
// per-slot expansion choice is pickFiltered, the exact rule the solo
// filtered loop uses. Pools, visited sets and termination stay per-slot, so
// each query's result is byte-identical to its solo filtered run. The pass
// test is identical across the cohort (one Filter per request batch), which
// is what keeps the frontiers overlapping enough for fusion to pay.

// expandFiltered advances every query of the cohort through the two-pool
// filtered Algorithm 1 in lockstep. lnav is the shared navigation-pool
// capacity (one filter, one selectivity, one size).
func (cc *CohortContext) expandFiltered(g *graphutil.FlatGraph, n int, d cohortDist, start int32, l, lnav int, counter *vecmath.Counter, pf passFilter) {
	nq := len(cc.slot)
	if nq == 0 {
		return
	}
	for s := 0; s < nq; s++ {
		ctx := cc.slots[s]
		ctx.begin(n, l)
		ctx.nav.reset(lnav)
	}

	// Seed round: one gathered row for the whole cohort; the start node is
	// always expandable (either pool is empty), so every slot starts active.
	cc.unionReset(n)
	cc.union = append(cc.union, start)
	out := cc.blockScratch(nq)
	d.block(counter, nq, cc.union, out)
	cc.RowLoads++
	cc.PairDists += uint64(nq)
	startPass := pf.pass(start)
	for s := 0; s < nq; s++ {
		ctx := cc.slots[s]
		ctx.visited.Visit(start)
		if startPass {
			ctx.pool.insert(start, out[s])
		} else {
			ctx.nav.insert(start, out[s])
		}
	}

	active := nq
	for active > 0 {
		// Stage: each active row expands the candidate its solo filtered run
		// would pick next. The insert phase retires rows with nothing left
		// to expand, so pickFiltered cannot come back empty here.
		cc.unionReset(n)
		totalStaged := 0
		for r := 0; r < active; r++ {
			s := cc.slot[r]
			ctx := cc.slots[s]
			pl, idx := ctx.pickFiltered(&cc.next[s], &cc.nextNav[s])
			pl.elems[idx].checked = true
			curID := pl.elems[idx].id
			cc.hops[s]++
			staged := ctx.idBuf[:0]
			for _, nb := range g.Neighbors(curID) {
				if ctx.visited.Visit(nb) {
					staged = append(staged, nb)
					cc.noteUnion(nb)
				}
			}
			ctx.idBuf = staged
			totalStaged += len(staged)
		}

		// Score: same dense/sparse adaptation as the unfiltered engine; the
		// filter routes inserts, it never changes which rows are gathered.
		u := len(cc.union)
		dense := 4*totalStaged >= 3*active*u
		if dense && u > 0 {
			out = cc.blockScratch(active * u)
			d.block(counter, active, cc.union, out)
			cc.RowLoads += uint64(u)
			cc.PairDists += uint64(active) * uint64(u)
		} else if u > 0 {
			cc.RowLoads += uint64(u)
			cc.PairDists += uint64(totalStaged)
		}

		// Insert: route each staged candidate into its slot's main or
		// navigation pool, pull both cursors back to the shallowest insert,
		// and retire slots whose two-pool rule has nothing left to expand.
		cc.finished = cc.finished[:0]
		for r := 0; r < active; r++ {
			s := cc.slot[r]
			ctx := cc.slots[s]
			p, nv := &ctx.pool, &ctx.nav
			lowestP, lowestN := len(p.elems), len(nv.elems)
			offer := func(id int32, dval float32) {
				if pf.pass(id) {
					if pos := p.insert(id, dval); pos >= 0 && pos < lowestP {
						lowestP = pos
					}
				} else {
					if pos := nv.insert(id, dval); pos >= 0 && pos < lowestN {
						lowestN = pos
					}
				}
			}
			if dense {
				row := out[r*u : r*u+u]
				for _, id := range ctx.idBuf {
					offer(id, row[cc.pos[id]])
				}
			} else if len(ctx.idBuf) > 0 {
				dists := ctx.distScratch(len(ctx.idBuf))
				d.toSlot(counter, r, ctx.idBuf, dists)
				for j, id := range ctx.idBuf {
					offer(id, dists[j])
				}
			}
			if lowestP < cc.next[s] {
				cc.next[s] = lowestP
			}
			if lowestN < cc.nextNav[s] {
				cc.nextNav[s] = lowestN
			}
			if pl, _ := ctx.pickFiltered(&cc.next[s], &cc.nextNav[s]); pl == nil {
				cc.finished = append(cc.finished, r)
			}
		}

		for i := len(cc.finished) - 1; i >= 0; i-- {
			r := cc.finished[i]
			last := active - 1
			if r != last {
				cc.slot[r] = cc.slot[last]
				d.swapRemove(r, last)
			}
			active--
		}
	}
}

// SearchCohortFilteredCtx answers a cohort of queries under one shared
// Filter with the fused filtered traversal. Per query the result is
// byte-identical to a solo SearchFilteredWithHopsCtx call with the same k,
// l, dead set and filter — including the exact-scan regime, which runs
// per-slot (exhaustive scans share nothing worth fusing). A nil flt degrades
// to the unfiltered cohort. Results alias cc; counter may be nil.
func (x *NSG) SearchCohortFilteredCtx(cc *CohortContext, queries [][]float32, k, l int, dead *Tombstones, flt *Filter, counter *vecmath.Counter) []SearchResult {
	if flt == nil {
		return x.SearchCohortCtx(cc, queries, k, l, dead, counter)
	}
	checkDims(queries, x.Base.Dim)
	results := cc.prep(len(queries))
	if len(queries) == 0 {
		return results
	}
	if flt.Count == 0 {
		for s := range queries {
			results[s] = emptyResult(cc.slots[s])
		}
		return results
	}
	if l < k {
		l = k
	}
	if dead != nil && dead.Len() == 0 {
		dead = nil
	}
	pf := passFilter{bits: flt.Bits, pubIDs: x.PubIDs, remap: flt.Remap, dead: dead}
	n := x.Base.Rows
	if useExactScan(n, l, flt) {
		for s := range queries {
			res := bruteForceFiltered(cc.slots[s], x.Base, queries[s], n, k, counter, nil, flt, pf)
			x.toPublic(res.Neighbors)
			results[s] = res
		}
		return results
	}
	f := x.FlatView()
	lnav := navPoolSize(n, l, flt)
	if qz := x.Quant; qz != nil {
		var cd cohortDist
		if qz.Mode == quant.ModeInt4 {
			cc.prepLevels4(&qz.Q4, queries)
			cc.cd4 = codeCohort4{qz: &qz.Q4, codes: qz.Codes4, levels: cc.levels, dim: x.Base.Dim}
			cd = &cc.cd4
		} else {
			cc.prepLevels(&qz.Q, queries)
			cc.cd = codeCohort{qz: &qz.Q, codes: qz.Codes, levels: cc.levels, dim: x.Base.Dim}
			cd = &cc.cd
		}
		cc.expandFiltered(f, n, cd, x.Navigating, l, lnav, counter, pf)
		for s := range queries {
			ctx := cc.slots[s]
			ns := emit(ctx, l)
			ns = rerankPool(ctx, x.Base, queries[s], k, counter, nil, ns)
			x.toPublic(ns)
			results[s] = SearchResult{Neighbors: ns, Hops: cc.hops[s]}
		}
		return results
	}
	cc.prepFloat(queries, x.Base.Dim)
	cc.fd = floatCohort{base: x.Base, q: cc.qbuf, dim: x.Base.Dim}
	cc.expandFiltered(f, n, &cc.fd, x.Navigating, l, lnav, counter, pf)
	for s := range queries {
		ns := emit(cc.slots[s], k)
		x.toPublic(ns)
		results[s] = SearchResult{Neighbors: ns, Hops: cc.hops[s]}
	}
	return results
}

// SearchLiveCohortFilteredCtx is the filtered twin of SearchLiveCohortCtx:
// fused filtered traversal over the frozen snapshot, then per slot the
// filtered delta merge, exact rerank (quantized), and the shared finishLive
// tail. Tombstones are folded into the pass test, so there is no dead
// over-fetch. Per query the result is byte-identical to a solo
// SearchLiveFilteredCtx call against the same view.
func (s *Snapshot) SearchLiveCohortFilteredCtx(cc *CohortContext, queries [][]float32, k, l int, counter *vecmath.Counter, lq LiveQuery, flt *Filter) []SearchResult {
	if flt == nil {
		return s.SearchLiveCohortCtx(cc, queries, k, l, counter, lq)
	}
	checkDims(queries, s.base.Dim)
	results := cc.prep(len(queries))
	if len(queries) == 0 {
		return results
	}
	if flt.Count == 0 {
		for si := range queries {
			results[si] = emptyResult(cc.slots[si])
		}
		return results
	}
	if l < k {
		l = k
	}
	d := lq.Delta
	if d != nil && d.Total == 0 {
		d = nil
	}
	dead := lq.Dead
	if dead != nil && dead.Len() == 0 {
		dead = nil
	}
	remap := lq.Translate
	if remap == nil {
		remap = flt.Remap
	}
	pf := passFilter{bits: flt.Bits, pubIDs: s.pubIDs, remap: remap, dead: dead}
	n := s.base.Rows
	if useExactScan(n, l, flt) {
		for si := range queries {
			res := bruteForceFiltered(cc.slots[si], s.base, queries[si], n, k, counter, d, flt, pf)
			res.Neighbors = s.finishLive(res.Neighbors, k, lq, d)
			results[si] = res
		}
		return results
	}
	lnav := navPoolSize(n, l, flt)
	if qz := s.quant; qz != nil {
		int4 := qz.Mode == quant.ModeInt4
		var cd cohortDist
		if int4 {
			cc.prepLevels4(&qz.Q4, queries)
			cc.cd4 = codeCohort4{qz: &qz.Q4, codes: qz.Codes4, levels: cc.levels, dim: s.base.Dim}
			cd = &cc.cd4
		} else {
			cc.prepLevels(&qz.Q, queries)
			cc.cd = codeCohort{qz: &qz.Q, codes: qz.Codes, levels: cc.levels, dim: s.base.Dim}
			cd = &cc.cd
		}
		cc.expandFiltered(s.flat, n, cd, s.nav, l, lnav, counter, pf)
		for si := range queries {
			ctx := cc.slots[si]
			if d != nil {
				if int4 {
					mergeDeltaFiltered(ctx, n, code4Dist{q: &qz.Q4, codes: qz.Codes4, levels: cc.slotLevel(si, s.base.Dim)}, d, counter, flt, dead)
				} else {
					mergeDeltaFiltered(ctx, n, codeDist{q: &qz.Q, codes: qz.Codes, levels: cc.slotLevel(si, s.base.Dim)}, d, counter, flt, dead)
				}
			}
			ns := emit(ctx, l)
			ns = rerankPool(ctx, s.base, queries[si], k, counter, d, ns)
			ns = s.finishLive(ns, k, lq, d)
			results[si] = SearchResult{Neighbors: ns, Hops: cc.hops[si]}
		}
		return results
	}
	cc.prepFloat(queries, s.base.Dim)
	cc.fd = floatCohort{base: s.base, q: cc.qbuf, dim: s.base.Dim}
	cc.expandFiltered(s.flat, n, &cc.fd, s.nav, l, lnav, counter, pf)
	for si := range queries {
		ctx := cc.slots[si]
		if d != nil {
			mergeDeltaFiltered(ctx, n, floatDist{base: s.base, query: queries[si]}, d, counter, flt, dead)
		}
		ns := emit(ctx, k)
		ns = s.finishLive(ns, k, lq, d)
		results[si] = SearchResult{Neighbors: ns, Hops: cc.hops[si]}
	}
	return results
}
