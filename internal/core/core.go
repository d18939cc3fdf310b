// Package core implements the paper's primary contribution: the Navigating
// Spreading-out Graph (NSG) index and the greedy best-first Search-on-Graph
// routine (Algorithm 1) that every graph index in this repository shares.
//
// An NSG is built from an approximate kNN graph by Algorithm 2:
//
//  1. Find the navigating node — the approximate medoid, located by
//     searching the kNN graph for the dataset centroid.
//  2. For every point p, run Search-on-Graph from the navigating node with
//     p as the query, collecting every node whose distance to p was
//     evaluated; merge in p's kNN neighbors.
//  3. Select at most m out-edges from the candidates with the MRNG edge
//     rule: accept candidate q unless an already accepted neighbor r lies
//     in lune(p,q) (pq would be the longest edge of triangle pqr).
//  4. Repair connectivity: span a DFS tree from the navigating node and
//     attach any unreached node to its approximate nearest in-tree
//     neighbor, repeating until all nodes are reachable.
//
// Search always starts from the navigating node, inheriting the MRNG's
// near-logarithmic expected path length.
package core

import (
	"repro/internal/graphutil"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// element is a pool entry for Algorithm 1: a candidate node, its distance
// to the query, and whether its out-edges have been expanded ("checked").
type element struct {
	id      int32
	dist    float32
	checked bool
}

// pool is the fixed-capacity ordered candidate pool of Algorithm 1. It keeps
// the best l candidates seen so far, ascending by distance, and tracks the
// first unchecked index so the scan in Algorithm 1 line 4 is O(1) amortized.
type pool struct {
	elems []element
	cap   int
}

func newPool(l int) *pool {
	return &pool{elems: make([]element, 0, l+1), cap: l}
}

// reset empties the pool and retargets it to capacity l, reusing the backing
// array whenever it is large enough.
func (p *pool) reset(l int) {
	p.cap = l
	if cap(p.elems) < l+1 {
		p.elems = make([]element, 0, l+1)
	} else {
		p.elems = p.elems[:0]
	}
}

// insert offers a candidate. Returns the insertion position, or -1 if the
// candidate was rejected (full pool and too far) or already present.
func (p *pool) insert(id int32, dist float32) int {
	n := len(p.elems)
	if n == p.cap && dist >= p.elems[n-1].dist {
		return -1
	}
	// Binary search for the insertion point (first element with larger
	// distance; ties keep ascending id order for determinism).
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if p.elems[mid].dist < dist || (p.elems[mid].dist == dist && p.elems[mid].id < id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Duplicate check in the equal-distance neighborhood.
	for i := lo; i < n && p.elems[i].dist == dist; i++ {
		if p.elems[i].id == id {
			return -1
		}
	}
	for i := lo - 1; i >= 0 && p.elems[i].dist == dist; i-- {
		if p.elems[i].id == id {
			return -1
		}
	}
	p.elems = append(p.elems, element{})
	copy(p.elems[lo+1:], p.elems[lo:])
	p.elems[lo] = element{id: id, dist: dist}
	if len(p.elems) > p.cap {
		p.elems = p.elems[:p.cap]
	}
	return lo
}

// SearchResult reports what a Search-on-Graph run did, for the paper's
// complexity experiments: hops is the number of pool expansions (search path
// length l in the o·l cost model), and the distance computations are counted
// by the caller's vecmath.Counter. Exact is set when a filtered search
// answered by exact scan instead of walking the graph (Hops is then 0).
type SearchResult struct {
	Neighbors []vecmath.Neighbor
	Hops      int
	Exact     bool
}

// adjacencySource abstracts the two graph layouts Algorithm 1 traverses:
// ragged adjacency lists (mutable graphs, build time) and the fixed-stride
// flat array (immutable serving layout). The search body is instantiated
// once per concrete layout so both compile to direct calls; having a single
// body guarantees the two layouts produce byte-identical results.
type adjacencySource interface {
	neighbors(id int32) []int32
}

type listAdj struct{ adj [][]int32 }

func (a listAdj) neighbors(id int32) []int32 { return a.adj[id] }

type flatAdj struct{ g *graphutil.FlatGraph }

func (a flatAdj) neighbors(id int32) []int32 { return a.g.Neighbors(id) }

// distSource abstracts where Algorithm 1's candidate distances come from:
// exact float32 rows (the default, and the only source build-time passes
// use) or SQ8 code rows (the quantized serving path, whose approximation is
// corrected by an exact rerank before results are emitted). Like
// adjacencySource, the search body is instantiated per concrete source so
// both compile to direct calls and the float path stays byte-identical to
// what it was before quantization existed.
type distSource interface {
	// one computes the distance to a single node and records it in counter.
	one(counter *vecmath.Counter, id int32) float32
	// toRows is the batched gather: distance to every id, one counter update.
	toRows(counter *vecmath.Counter, ids []int32, out []float32)
	// deltaRows is the batched scan over one delta chunk's rows, in the same
	// distance space as one/toRows: exact float rows on the float path, SQ8
	// code rows on the quantized path. out must hold ch.Rows() values.
	deltaRows(counter *vecmath.Counter, ch *DeltaChunk, out []float32)
}

// floatDist scores candidates with exact squared L2 over the base matrix.
type floatDist struct {
	base  vecmath.Matrix
	query []float32
}

func (d floatDist) one(counter *vecmath.Counter, id int32) float32 {
	return counter.L2(d.query, d.base.Row(int(id)))
}

func (d floatDist) toRows(counter *vecmath.Counter, ids []int32, out []float32) {
	counter.L2ToRows(d.base, d.query, ids, out)
}

func (d floatDist) deltaRows(counter *vecmath.Counter, ch *DeltaChunk, out []float32) {
	counter.L2ToRows(ch.Vecs, d.query, ch.Seq, out)
}

// codeDist scores candidates with the asymmetric SQ8 kernel over the code
// matrix: a 1-byte-per-dimension gather instead of 4. Each scanned code row
// counts as one distance evaluation, the same convention the IVFPQ
// baseline's ADC scan uses.
type codeDist struct {
	q      *quant.Quantizer
	codes  quant.CodeMatrix
	levels []int16 // the prepared query (Quantizer.PrepareInto)
}

func (d codeDist) one(counter *vecmath.Counter, id int32) float32 {
	counter.AddN(1)
	return d.q.L2(d.levels, d.codes, id)
}

func (d codeDist) toRows(counter *vecmath.Counter, ids []int32, out []float32) {
	d.q.L2ToRowsCount(counter, d.codes, d.levels, ids, out)
}

func (d codeDist) deltaRows(counter *vecmath.Counter, ch *DeltaChunk, out []float32) {
	d.q.L2ToRowsCount(counter, ch.Codes, d.levels, ch.Seq, out)
}

// code4Dist scores candidates with the asymmetric int4 kernel over the
// packed nibble matrix: half a byte per dimension gathered per candidate,
// 2x less traffic than SQ8 and 8x less than float. Same counting
// convention as codeDist — each scanned code row is one evaluation.
type code4Dist struct {
	q      *quant.Quantizer4
	codes  quant.Code4Matrix
	levels []int16 // the prepared query (Quantizer4.PrepareInto)
}

func (d code4Dist) one(counter *vecmath.Counter, id int32) float32 {
	counter.AddN(1)
	return d.q.L2(d.levels, d.codes, id)
}

func (d code4Dist) toRows(counter *vecmath.Counter, ids []int32, out []float32) {
	d.q.L2ToRowsCount(counter, d.codes, d.levels, ids, out)
}

func (d code4Dist) deltaRows(counter *vecmath.Counter, ch *DeltaChunk, out []float32) {
	d.q.L2ToRowsCount(counter, ch.Codes4, d.levels, ch.Seq, out)
}

// searchCtx is Algorithm 1: greedy best-first search from starts, keeping
// the best l candidates and returning the nearest k. All scratch state lives
// in ctx, so the steady state allocates nothing; the returned Neighbors
// slice aliases ctx.out and is valid until ctx's next search.
//
// delta, when non-nil, is a set of rows that exist outside the graph (a
// live-update buffer not yet merged into the serving snapshot): after the
// graph expansion finishes, every delta row is scored with the batched
// deltaRows kernel — in the same distance space the expansion used — and
// offered to the candidate pool under id n+offset, so delta points compete
// with graph points for the final top k (and, on the quantized path, are
// reranked with everything else). Delta elements are born checked: they
// have no out-edges to expand.
func searchCtx[A adjacencySource, D distSource](ctx *SearchContext, a A, n int, dist D, starts []int32, k, l int, counter *vecmath.Counter, visited *[]vecmath.Neighbor, delta *Delta) SearchResult {
	if l < k {
		l = k
	}
	ctx.begin(n, l)
	p := &ctx.pool
	for _, s := range starts {
		if !ctx.visited.Visit(s) {
			continue
		}
		d := dist.one(counter, s)
		if visited != nil {
			*visited = append(*visited, vecmath.Neighbor{ID: s, Dist: d})
		}
		p.insert(s, d)
	}

	hops := 0
	// Index of the first possibly-unchecked element; everything before it
	// is known checked.
	next := 0
	for next < len(p.elems) {
		if p.elems[next].checked {
			next++
			continue
		}
		cur := &p.elems[next]
		cur.checked = true
		curID := cur.id
		hops++
		lowest := len(p.elems) // lowest insertion position this expansion
		// Stage the unvisited neighbors, then compute their distances in one
		// batched gather: the kernel call replaces one L2 call (and one
		// counter update) per neighbor.
		fresh := ctx.idBuf[:0]
		for _, nb := range a.neighbors(curID) {
			if ctx.visited.Visit(nb) {
				fresh = append(fresh, nb)
			}
		}
		ctx.idBuf = fresh
		dists := ctx.distScratch(len(fresh))
		dist.toRows(counter, fresh, dists)
		for i, nb := range fresh {
			d := dists[i]
			if visited != nil {
				*visited = append(*visited, vecmath.Neighbor{ID: nb, Dist: d})
			}
			if pos := p.insert(nb, d); pos >= 0 && pos < lowest {
				lowest = pos
			}
		}
		// Resume scanning from the shallowest new candidate: anything
		// before it is unchanged and already checked up to `next`.
		if lowest < next {
			next = lowest
		}
	}

	// Merge the delta buffer into the pool: the final pool is the best l of
	// (graph candidates ∪ delta rows), so a pending insert can displace a
	// graph point from the top k exactly as it would after being drained.
	if delta != nil {
		mergeDelta(ctx, n, dist, delta, counter)
	}

	return SearchResult{Neighbors: emit(ctx, k), Hops: hops}
}

// mergeDelta offers every pending delta row to the candidate pool under id
// n+offset, scored by the batched deltaRows kernel in the same distance
// space the graph expansion used. Delta elements are born checked: they have
// no out-edges to expand. Shared by the solo search tail and the per-slot
// cohort tail, so both merge identically.
func mergeDelta[D distSource](ctx *SearchContext, n int, dist D, delta *Delta, counter *vecmath.Counter) {
	p := &ctx.pool
	for ci := range delta.Chunks {
		ch := &delta.Chunks[ci]
		rows := ch.Rows()
		if rows == 0 {
			continue
		}
		dists := ctx.distScratch(rows)
		dist.deltaRows(counter, ch, dists)
		for j := 0; j < rows; j++ {
			if pos := p.insert(int32(n+ch.Off+j), dists[j]); pos >= 0 {
				p.elems[pos].checked = true
			}
		}
	}
}

// emit copies the pool's nearest k candidates into ctx.out and returns the
// slice — the final step of the solo search and of every per-slot cohort
// tail.
func emit(ctx *SearchContext, k int) []vecmath.Neighbor {
	p := &ctx.pool
	if k > len(p.elems) {
		k = len(p.elems)
	}
	out := ctx.out[:0]
	for i := 0; i < k; i++ {
		out = append(out, vecmath.Neighbor{ID: p.elems[i].id, Dist: p.elems[i].dist})
	}
	ctx.out = out
	return out
}

// SearchOnGraphCtx is Algorithm 1 over the fixed-stride flat layout with
// caller-owned scratch: pass the same ctx on every query from a goroutine
// and the steady state performs zero heap allocations. The returned
// Neighbors slice aliases the context and is valid only until the context's
// next search — copy it to retain. visited, when non-nil, receives every
// node whose distance to the query was computed. counter may be nil.
func SearchOnGraphCtx(ctx *SearchContext, g *graphutil.FlatGraph, base vecmath.Matrix, query []float32, starts []int32, k, l int, counter *vecmath.Counter, visited *[]vecmath.Neighbor) SearchResult {
	return searchCtx(ctx, flatAdj{g: g}, g.Nodes, floatDist{base: base, query: query}, starts, k, l, counter, visited, nil)
}

// SearchOnGraphListCtx is SearchOnGraphCtx over ragged adjacency lists; it
// exists for graphs that are still mutating (Algorithm 2's connectivity
// repair, incremental inserts), where maintaining a flat copy per mutation
// would cost more than the layout saves.
func SearchOnGraphListCtx(ctx *SearchContext, adj [][]int32, base vecmath.Matrix, query []float32, starts []int32, k, l int, counter *vecmath.Counter, visited *[]vecmath.Neighbor) SearchResult {
	return searchCtx(ctx, listAdj{adj: adj}, len(adj), floatDist{base: base, query: query}, starts, k, l, counter, visited, nil)
}

// SearchOnGraph is Algorithm 1: greedy best-first search over adjacency
// lists adj on the points in base, starting from the nodes in starts,
// returning the k nearest candidates to query found with a pool of size l.
// visited, when non-nil, receives every node whose distance to the query was
// computed — the "search-and-collect" hook Algorithm 2 uses to gather
// pruning candidates. counter may be nil.
//
// The returned slice is caller-owned. Hot loops should prefer
// SearchOnGraphCtx (or the ctx-taking index methods), which reuse all
// scratch state; this signature draws a context from a pool and copies the
// result out.
func SearchOnGraph(adj [][]int32, base vecmath.Matrix, query []float32, starts []int32, k, l int, counter *vecmath.Counter, visited *[]vecmath.Neighbor) SearchResult {
	ctx := getCtx()
	res := searchCtx(ctx, listAdj{adj: adj}, len(adj), floatDist{base: base, query: query}, starts, k, l, counter, visited, nil)
	out := copyNeighbors(res.Neighbors)
	putCtx(ctx)
	return SearchResult{Neighbors: out, Hops: res.Hops}
}
