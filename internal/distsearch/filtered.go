package distsearch

import (
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/vecmath"
)

// Filtered fan-out: one predicate compiles into one GLOBAL-id-keyed bitmap,
// and every shard searches under it by translating its local rows through
// its localID table (core.Filter.Remap). The per-shard filtered traversal
// is the exact two-pool Algorithm 1 the single-index path runs, so the
// sharded filtered answer is the merge of per-shard filtered answers — the
// same contract the unfiltered fan-out has. Shards with zero passing rows
// are skipped entirely; their workers are never scheduled.

// ShardedFilter is one compiled predicate prepared for fan-out: the global
// bitmap plus a per-shard core.Filter view with that shard's id translation
// and passing count (which drives each shard's selectivity adaptation —
// navigation-pool sizing and the exact-scan planner — independently).
// Compile once per predicate and reuse across queries; the struct is
// read-only after NewFilter.
type ShardedFilter struct {
	Bits  []uint64 // global-id-keyed passing bitmap (fail-closed past its end)
	Count int      // total passing rows across all shards
	per   []core.Filter
}

// NewFilter prepares a compiled bitmap (global-id keyed, with its total
// passing count) for fan-out serving. Per-shard counts are taken against
// the current id maps; on a live index rows appended after NewFilter test
// against the bitmap individually (fail-closed past its end), the counts
// only tune per-shard traversal adaptivity.
func (s *Sharded) NewFilter(bits []uint64, count int) *ShardedFilter {
	sf := &ShardedFilter{Bits: bits, Count: count, per: make([]core.Filter, len(s.shards))}
	owners := s.ownerMasks()
	for sh := range s.shards {
		sf.per[sh] = core.Filter{Bits: bits, Count: andCount(bits, owners.masks[sh]), Remap: s.localID[sh]}
	}
	return sf
}

// shardOwners holds, per shard, the bitmap of the global ids the shard
// owns, so a shard's passing count is a popcount of bits AND mask — a few
// hundred words — instead of a random bit probe per shard row. It is
// keyed by the id-map lengths it was built from: id maps only ever grow by
// appending, so equal lengths mean equal maps.
type shardOwners struct {
	lens  []int
	masks [][]uint64
}

// ownerMasks returns the owner masks for the current id maps, rebuilding
// them (O(rows), once per id-map change) when a map has grown.
func (s *Sharded) ownerMasks() *shardOwners {
	if o := s.owners.Load(); o != nil && len(o.lens) == len(s.localID) {
		fresh := true
		for sh, ids := range s.localID {
			fresh = fresh && o.lens[sh] == len(ids)
		}
		if fresh {
			return o
		}
	}
	o := &shardOwners{lens: make([]int, len(s.localID)), masks: make([][]uint64, len(s.localID))}
	for sh, ids := range s.localID {
		o.lens[sh] = len(ids)
		top := int32(-1)
		for _, gid := range ids {
			top = max(top, gid)
		}
		mask := make([]uint64, meta.BitsLen(int(top)+1))
		for _, gid := range ids {
			if gid >= 0 {
				mask[gid>>6] |= 1 << uint(gid&63)
			}
		}
		o.masks[sh] = mask
	}
	s.owners.Store(o)
	return o
}

// andCount popcounts a AND b over their common words: the ids set in both,
// so ids past either bitmap count as absent.
func andCount(a, b []uint64) int {
	b = b[:min(len(a), len(b))]
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(a[i] & w)
	}
	return n
}

// CompileFilter compiles a predicate against the index's global metadata
// store into a ready-to-fan filter. The bitmap is freshly allocated (sized
// and compiled against one consistent store view, so concurrent appends
// cannot fail the compilation), and the result stays valid when the
// predicate scratch is reused.
func (s *Sharded) CompileFilter(p meta.Predicate) (*ShardedFilter, error) {
	if s.Meta == nil {
		return nil, core.ErrNoMetadata
	}
	bits, count, err := s.Meta.CompileAlloc(p)
	if err != nil {
		return nil, err
	}
	return s.NewFilter(bits, count), nil
}

// runFiltered is fanScratch.run's filtered twin: search one shard under its
// per-shard filter view and translate to global ids. Never called for
// zero-count shards — searchFanFiltered skips them at enqueue time.
func (f *fanScratch) runFiltered(ctx *core.SearchContext, counter *vecmath.Counter, sh int) {
	s := f.owner
	flt := &f.flt.per[sh]
	var res core.SearchResult
	if h := s.liveHandle(sh); h != nil {
		// Live path: the handle's translate table supersedes the filter's
		// remap and its results are already global ids.
		if f.stats {
			counter.Reset()
			res = h.SearchFilteredCtx(ctx, f.query, f.k, f.l, counter, flt)
			f.hops[sh], f.comps[sh], f.exact[sh] = res.Hops, counter.Count(), res.Exact
		} else {
			res = h.SearchFilteredCtx(ctx, f.query, f.k, f.l, nil, flt)
		}
		f.bufs[sh] = append(f.bufs[sh][:0], res.Neighbors...)
		f.wg.Done()
		return
	}
	if f.stats {
		counter.Reset()
		res = s.shards[sh].SearchFilteredWithHopsCtx(ctx, f.query, f.k, f.l, nil, flt, counter)
		f.hops[sh], f.comps[sh], f.exact[sh] = res.Hops, counter.Count(), res.Exact
	} else {
		res = s.shards[sh].SearchFilteredWithHopsCtx(ctx, f.query, f.k, f.l, nil, flt, nil)
	}
	ids := s.localID[sh]
	buf := f.bufs[sh][:0]
	for _, n := range res.Neighbors {
		buf = append(buf, vecmath.Neighbor{ID: ids[n.ID], Dist: n.Dist})
	}
	f.bufs[sh] = buf
	f.wg.Done()
}

// searchFanFiltered fans one filtered query across the shards, skipping
// shards with no passing rows.
func (s *Sharded) searchFanFiltered(dst []vecmath.Neighbor, q []float32, k, l int, flt *ShardedFilter, withStats bool) ([]vecmath.Neighbor, SearchStats) {
	f := s.getScratch()
	f.query, f.k, f.l, f.stats, f.flt = q, k, l, withStats, flt
	active := 0
	for sh := range s.shards {
		f.hops[sh], f.comps[sh], f.exact[sh] = 0, 0, false
		if flt.per[sh].Count == 0 {
			f.bufs[sh] = f.bufs[sh][:0] // pooled scratch: drop stale results
			continue
		}
		active++
	}
	f.wg.Add(active)
	for sh := range s.shards {
		if flt.per[sh].Count != 0 {
			s.tasks <- shardTask{f: f, shard: sh}
		}
	}
	f.wg.Wait()
	dst = f.mergeAppend(dst, k)
	var st SearchStats
	if withStats {
		for sh := range s.shards {
			st.Hops += f.hops[sh]
			st.DistComps += f.comps[sh]
			if f.exact[sh] {
				st.ExactScans++
			}
		}
	}
	f.flt = nil
	s.putScratch(f)
	return dst, st
}

// SearchFilteredAppend is SearchAppend under a compiled filter: fan out to
// every shard with passing rows, search each under the shared bitmap, merge
// by distance and append the k nearest passing neighbors to dst. With a
// warm destination buffer and a reused filter the steady state performs
// zero heap allocations.
func (s *Sharded) SearchFilteredAppend(dst []vecmath.Neighbor, q []float32, k, l int, flt *ShardedFilter) []vecmath.Neighbor {
	if flt == nil {
		return s.SearchAppend(dst, q, k, l)
	}
	if flt.Count == 0 {
		return dst
	}
	res, _ := s.searchFanFiltered(dst, q, k, l, flt, false)
	return res
}

// SearchFilteredStatsAppend is SearchFilteredAppend plus the summed
// per-shard work accounting, including how many shards answered by exact
// scan.
func (s *Sharded) SearchFilteredStatsAppend(dst []vecmath.Neighbor, q []float32, k, l int, flt *ShardedFilter) ([]vecmath.Neighbor, SearchStats) {
	if flt == nil {
		return s.searchFan(dst, q, k, l, true)
	}
	if flt.Count == 0 {
		return dst, SearchStats{}
	}
	return s.searchFanFiltered(dst, q, k, l, flt, true)
}

// runFiltered is cohortFan.run's filtered twin: one fused filtered
// traversal answers the whole cohort on this shard.
func (cf *cohortFan) runFiltered(cc *core.CohortContext, sh int) {
	s := cf.owner
	nq := cf.nq
	flt := &cf.flt.per[sh]
	if h := s.liveHandle(sh); h != nil {
		res := h.SearchCohortFilteredCtx(cc, cf.queries, cf.k, cf.l, nil, flt)
		for qi := range res {
			cf.bufs[sh*nq+qi] = append(cf.bufs[sh*nq+qi][:0], res[qi].Neighbors...)
		}
		cf.wg.Done()
		return
	}
	res := s.shards[sh].SearchCohortFilteredCtx(cc, cf.queries, cf.k, cf.l, nil, flt, nil)
	ids := s.localID[sh]
	for qi := range res {
		buf := cf.bufs[sh*nq+qi][:0]
		for _, n := range res[qi].Neighbors {
			buf = append(buf, vecmath.Neighbor{ID: ids[n.ID], Dist: n.Dist})
		}
		cf.bufs[sh*nq+qi] = buf
	}
	cf.wg.Done()
}

// SearchCohortFiltered answers a cohort of queries under one shared filter
// with one fused filtered traversal per shard; per query the merged answer
// is byte-identical to a solo SearchFilteredAppend. emit is called once per
// query, in order; the slice is reused across calls, so emit must copy what
// it keeps. A nil flt degrades to the unfiltered cohort fan-out.
func (s *Sharded) SearchCohortFiltered(queries [][]float32, k, l int, flt *ShardedFilter, emit func(qi int, ns []vecmath.Neighbor)) {
	if flt == nil {
		s.SearchCohort(queries, k, l, emit)
		return
	}
	nq := len(queries)
	if nq == 0 {
		return
	}
	var empty []vecmath.Neighbor
	if flt.Count == 0 {
		for qi := 0; qi < nq; qi++ {
			emit(qi, empty)
		}
		return
	}
	cf := s.getCohortFan()
	cf.queries, cf.k, cf.l, cf.nq, cf.flt = queries, k, l, nq, flt
	need := len(s.shards) * nq
	for len(cf.bufs) < need {
		cf.bufs = append(cf.bufs, nil)
	}
	active := 0
	for sh := range s.shards {
		if flt.per[sh].Count == 0 {
			for qi := 0; qi < nq; qi++ {
				cf.bufs[sh*nq+qi] = cf.bufs[sh*nq+qi][:0]
			}
			continue
		}
		active++
	}
	cf.wg.Add(active)
	for sh := range s.shards {
		if flt.per[sh].Count != 0 {
			s.tasks <- shardTask{cf: cf, shard: sh}
		}
	}
	cf.wg.Wait()
	for qi := 0; qi < nq; qi++ {
		m := cf.merged[:0]
		for sh := range s.shards {
			m = append(m, cf.bufs[sh*nq+qi]...)
		}
		slices.SortFunc(m, vecmath.CompareNeighbors)
		if len(m) > k {
			m = m[:k]
		}
		emit(qi, m)
		cf.merged = m[:0]
	}
	cf.queries, cf.flt = nil, nil
	s.cohorts.Put(cf)
}
