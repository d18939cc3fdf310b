package nsg

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/distsearch"
	"repro/internal/meta"
	"repro/internal/vecmath"
)

// Predicate-aware ("filtered") search: attach a metadata column store to an
// index, compile a predicate into a Filter once, and search under it —
// results contain only passing points, and the traversal stays graph-guided
// instead of post-filtering (see the README's "Filtered search" section and
// ARCHITECTURE.md for the two-pool mechanism).

// Predicate is a metadata predicate tree: Eq / Range / In / HasTag leaves
// combined with And / Or. The zero value matches every row.
type Predicate = meta.Predicate

// Metadata is a typed metadata column store keyed by vector id: int64
// columns (prices, timestamps, tenant ids), dictionary-encoded string enum
// columns (categories), and tag-set columns (labels). Reads — including
// filter compilation — are lock-free and safe concurrently with AppendRow.
type Metadata = meta.Store

// NewMetadata returns an empty metadata store expecting rows rows in every
// column added. Build columns with AddInt64, AddEnum and AddTags, then
// attach the store with Index.SetMetadata (or ShardedIndex.SetMetadata).
func NewMetadata(rows int) *Metadata { return meta.New(rows) }

// Eq matches rows whose column equals value: an integer kind for int64
// columns, a string for enum columns.
func Eq(col string, value any) Predicate { return meta.Eq(col, value) }

// Range matches rows of an int64 column with lo <= value <= hi.
func Range(col string, lo, hi int64) Predicate { return meta.Range(col, lo, hi) }

// In matches rows whose column value equals any of the given values.
func In(col string, values ...any) Predicate { return meta.In(col, values...) }

// HasTag matches rows of a tag-set column containing the given tag.
func HasTag(col, tag string) Predicate { return meta.HasTag(col, tag) }

// And matches rows passing every child predicate.
func And(ps ...Predicate) Predicate { return meta.And(ps...) }

// Or matches rows passing at least one child predicate.
func Or(ps ...Predicate) Predicate { return meta.Or(ps...) }

// ErrNoMetadata is returned by CompileFilter on an index with no attached
// metadata store.
var ErrNoMetadata = core.ErrNoMetadata

// SetMetadata attaches a metadata store to the index. The store must have
// exactly one row per indexed vector (row i describes the vector with id
// i); it is persisted inside Save bundles and restored by Load. Points
// added after attachment without a metadata row (plain Add) fail every
// filter until one is appended — AddWithMetadata keeps the two in step.
func (x *Index) SetMetadata(m *Metadata) error {
	if m != nil && m.Rows() != x.Len() {
		return fmt.Errorf("nsg: metadata has %d rows, index has %d vectors", m.Rows(), x.Len())
	}
	x.inner.Meta = m
	return nil
}

// Metadata returns the attached metadata store, or nil.
func (x *Index) Metadata() *Metadata { return x.inner.Meta }

// AddWithMetadata is Add plus one metadata row: the vector and its
// attributes land under the same id. row maps column name → value (integer
// kinds for int64 columns, string for enum, []string for tags); absent
// columns get the missing value. Requires an attached metadata store.
func (x *Index) AddWithMetadata(vec []float32, row map[string]any) (int32, error) {
	m := x.inner.Meta
	if m == nil {
		return -1, ErrNoMetadata
	}
	id, err := x.Add(vec)
	if err != nil {
		return id, err
	}
	if err := m.AppendRow(row); err != nil {
		// The vector is in; its missing metadata row means it fails every
		// filter, which is the documented contract for plain Add too.
		return id, fmt.Errorf("nsg: vector %d added but metadata row rejected: %w", id, err)
	}
	return id, nil
}

// Filter is one compiled predicate, ready for any number of searches. The
// bitmap is fixed at compile time: points added later fail it (compile a
// fresh filter to include them), deletes are honored at search time either
// way. Compile once per predicate and reuse — compilation is O(rows), a
// filtered search is not.
type Filter struct {
	bits  []uint64
	count int
	inner core.Filter
}

// Count returns the number of points passing the filter (at compile time).
func (f *Filter) Count() int { return f.count }

// CompileFilter compiles a predicate against the index's metadata store
// into a reusable Filter. Returns ErrNoMetadata when no store is attached;
// unknown columns and mistyped operands are errors.
func (x *Index) CompileFilter(p Predicate) (*Filter, error) {
	m := x.inner.Meta
	if m == nil {
		return nil, ErrNoMetadata
	}
	bits, count, err := m.CompileAlloc(p)
	if err != nil {
		return nil, err
	}
	return &Filter{bits: bits, count: count, inner: core.Filter{Bits: bits, Count: count}}, nil
}

// SearchFiltered returns the k nearest neighbors of query that pass the
// filter, using the index's default search pool size. A nil filter is an
// unfiltered Search.
func (x *Index) SearchFiltered(query []float32, k int, f *Filter) ([]int32, []float32) {
	return x.SearchFilteredWithPool(query, k, x.opts.SearchL, f)
}

// SearchFilteredWithPool is SearchFiltered with an explicit pool size l.
// The traversal navigates through non-passing points but only passing
// points occupy pool slots, so recall at equal l tracks the unfiltered
// search even under selective filters; whenever scoring the passing set
// exactly is cheaper than the walk, the search runs that exact scan
// instead (see the README's "Filtered search" section for the l and
// selectivity guidance). Tombstoned and filtered-out ids never appear in
// results; fewer than k results mean fewer than k passing points exist.
func (x *Index) SearchFilteredWithPool(query []float32, k, l int, f *Filter) ([]int32, []float32) {
	if f == nil {
		return x.SearchWithPool(query, k, l)
	}
	ctx := x.getCtx()
	ids, dists := extractResults(x.searchFiltered(ctx, query, k, l, f).Neighbors)
	x.putCtx(ctx)
	return ids, dists
}

// searchFiltered is one filtered search on ctx: over the live handle's
// current view when live updates are on, else over the index with its
// tombstones. The neighbors alias ctx.
func (x *Index) searchFiltered(ctx *core.SearchContext, query []float32, k, l int, f *Filter) core.SearchResult {
	if h := x.live.Load(); h != nil {
		return h.SearchFilteredCtx(ctx, query, k, l, nil, &f.inner)
	}
	return x.inner.SearchFilteredWithHopsCtx(ctx, query, k, l, x.dead, &f.inner, nil)
}

// SearchBatchFiltered answers many queries under one shared filter, fusing
// them into lockstep cohorts exactly like SearchBatch (every query's answer
// is byte-identical to its solo SearchFilteredWithPool). A nil filter is an
// unfiltered SearchBatch.
func (x *Index) SearchBatchFiltered(queries [][]float32, k, l, workers int, f *Filter) []BatchResult {
	if f == nil {
		return x.SearchBatch(queries, k, l, workers)
	}
	dim := x.Dim()
	for i, q := range queries {
		if len(q) != dim {
			panic(fmt.Sprintf("nsg: query %d dim %d != index dim %d", i, len(q), dim))
		}
	}
	out := make([]BatchResult, len(queries))
	if b := x.opts.BatchCohort; b > 1 {
		forEachCohort(len(queries), b, workers, x.getCohortCtx, x.putCohortCtx, func(cc *core.CohortContext, lo, hi int) {
			for qi, res := range x.searchCohortFiltered(cc, queries[lo:hi], k, l, f) {
				ids, dists := extractResults(res.Neighbors)
				out[lo+qi] = BatchResult{IDs: ids, Dists: dists}
			}
		})
		return out
	}
	forEachQuery(len(queries), workers, x.getCtx, x.putCtx, func(ctx *core.SearchContext, i int) {
		ids, dists := extractResults(x.searchFiltered(ctx, queries[i], k, l, f).Neighbors)
		out[i] = BatchResult{IDs: ids, Dists: dists}
	})
	return out
}

// searchCohortFiltered is searchCohort's filtered twin.
func (x *Index) searchCohortFiltered(cc *core.CohortContext, queries [][]float32, k, l int, f *Filter) []core.SearchResult {
	if h := x.live.Load(); h != nil {
		return h.SearchCohortFilteredCtx(cc, queries, k, l, nil, &f.inner)
	}
	return x.inner.SearchCohortFilteredCtx(cc, queries, k, l, x.dead, &f.inner, nil)
}

// ShardedFilter is one compiled predicate prepared for sharded fan-out:
// one global bitmap shared by every shard, plus per-shard id translation
// and passing counts (shards with no passing rows are skipped entirely).
type ShardedFilter struct {
	inner *distsearch.ShardedFilter
}

// Count returns the number of points passing the filter (at compile time).
func (f *ShardedFilter) Count() int { return f.inner.Count }

// SetMetadata attaches a metadata store to the sharded index, keyed by
// global id (row g describes the vector Search returns as id g). Persisted
// inside Save bundles and restored by LoadSharded.
func (x *ShardedIndex) SetMetadata(m *Metadata) error {
	if m != nil && m.Rows() != x.s.Base.Rows {
		return fmt.Errorf("nsg: metadata has %d rows, index has %d vectors", m.Rows(), x.s.Base.Rows)
	}
	x.s.Meta = m
	return nil
}

// Metadata returns the attached metadata store, or nil.
func (x *ShardedIndex) Metadata() *Metadata { return x.s.Meta }

// CompileFilter compiles a predicate against the sharded index's global
// metadata store into a reusable fan-out filter.
func (x *ShardedIndex) CompileFilter(p Predicate) (*ShardedFilter, error) {
	sf, err := x.s.CompileFilter(p)
	if err != nil {
		return nil, err
	}
	return &ShardedFilter{inner: sf}, nil
}

// SearchFiltered returns the k nearest passing neighbors of query with the
// default pool size, fanning out only to shards holding passing rows. A
// nil filter is an unfiltered Search.
func (x *ShardedIndex) SearchFiltered(query []float32, k int, f *ShardedFilter) ([]int32, []float32) {
	return x.SearchFilteredWithPool(query, k, x.opts.Shard.SearchL, f)
}

// SearchFilteredWithPool is SearchFiltered with an explicit per-shard pool
// size l. Each shard runs the filtered traversal under the shared bitmap
// with its own selectivity adaptation; per-shard answers merge by distance
// exactly like the unfiltered fan-out.
func (x *ShardedIndex) SearchFilteredWithPool(query []float32, k, l int, f *ShardedFilter) ([]int32, []float32) {
	if f == nil {
		return x.SearchWithPool(query, k, l)
	}
	b := x.getBuf()
	res := x.s.SearchFilteredAppend(b.ns[:0], query, k, l, f.inner)
	return x.extract(b, res)
}

// SearchFilteredWithStats is SearchFilteredWithPool plus aggregate
// traversal counters across the shard fan-out.
func (x *ShardedIndex) SearchFilteredWithStats(query []float32, k, l int, f *ShardedFilter) ([]int32, []float32, SearchStats) {
	if f == nil {
		return x.SearchWithStats(query, k, l)
	}
	b := x.getBuf()
	res, st := x.s.SearchFilteredStatsAppend(b.ns[:0], query, k, l, f.inner)
	ids, dists := x.extract(b, res)
	return ids, dists, SearchStats{Hops: st.Hops, DistanceComputations: st.DistComps, ExactScans: st.ExactScans}
}

// SearchBatchFiltered answers many queries under one shared filter with one
// fused filtered traversal per shard per cohort; per query the answer is
// byte-identical to a solo SearchFilteredWithPool. A nil filter is an
// unfiltered SearchBatch.
func (x *ShardedIndex) SearchBatchFiltered(queries [][]float32, k, l, workers int, f *ShardedFilter) []BatchResult {
	if f == nil {
		return x.SearchBatch(queries, k, l, workers)
	}
	dim := x.Dim()
	for i, q := range queries {
		if len(q) != dim {
			panic(fmt.Sprintf("nsg: query %d dim %d != index dim %d", i, len(q), dim))
		}
	}
	out := make([]BatchResult, len(queries))
	cohort := x.opts.Shard.BatchCohort
	if cohort <= 0 {
		cohort = DefaultOptions().BatchCohort
	}
	for lo := 0; lo < len(queries); lo += cohort {
		hi := lo + cohort
		if hi > len(queries) {
			hi = len(queries)
		}
		x.s.SearchCohortFiltered(queries[lo:hi], k, l, f.inner, func(qi int, ns []vecmath.Neighbor) {
			ids, dists := extractResults(ns)
			out[lo+qi] = BatchResult{IDs: ids, Dists: dists}
		})
	}
	return out
}

// predClause is the JSON wire form of one predicate node. Exactly one
// operator field must be present:
//
//	{"col":"category","eq":"shoes"}
//	{"col":"price","range":[1000,4999]}
//	{"col":"category","in":["shoes","boots"]}
//	{"col":"tags","has_tag":"sale"}
//	{"and":[<clause>,...]}   {"or":[<clause>,...]}
type predClause struct {
	Col    string            `json:"col,omitempty"`
	Eq     any               `json:"eq,omitempty"`
	Range  []int64           `json:"range,omitempty"`
	In     []any             `json:"in,omitempty"`
	HasTag *string           `json:"has_tag,omitempty"`
	And    []json.RawMessage `json:"and,omitempty"`
	Or     []json.RawMessage `json:"or,omitempty"`
}

// Wire-form predicate limits. Every clause compiles to an O(rows) bitmap
// pass, so an unbounded and/or array in a request body would be a cheap CPU
// amplification vector against the serving tier (each clause forces a full
// metadata scan, fanned to every shard). The caps are far above any sane
// filter while keeping the worst-case request body a small constant amount
// of per-request work.
const (
	// MaxPredicateClauses bounds the total clause count (leaves plus
	// and/or nodes) UnmarshalPredicate accepts in one filter.
	MaxPredicateClauses = 64
	// MaxPredicateDepth bounds and/or nesting depth.
	MaxPredicateDepth = 8
)

// UnmarshalPredicate parses the JSON clause form used by the serving tier
// (cmd/nsgserve request bodies) into a Predicate. See predClause for the
// syntax; nesting is bounded by MaxPredicateDepth and the total clause
// count by MaxPredicateClauses.
func UnmarshalPredicate(data []byte) (Predicate, error) {
	clauses := 0
	return unmarshalPredicate(data, 1, &clauses)
}

func unmarshalPredicate(data []byte, depth int, clauses *int) (Predicate, error) {
	if depth > MaxPredicateDepth {
		return Predicate{}, fmt.Errorf("nsg: filter nesting exceeds %d levels", MaxPredicateDepth)
	}
	*clauses++
	if *clauses > MaxPredicateClauses {
		return Predicate{}, fmt.Errorf("nsg: filter exceeds %d clauses", MaxPredicateClauses)
	}
	var c predClause
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Predicate{}, fmt.Errorf("nsg: filter clause: %w", err)
	}
	ops := 0
	for _, set := range []bool{c.Eq != nil, c.Range != nil, c.In != nil, c.HasTag != nil, c.And != nil, c.Or != nil} {
		if set {
			ops++
		}
	}
	if ops != 1 {
		return Predicate{}, fmt.Errorf("nsg: filter clause needs exactly one of eq/range/in/has_tag/and/or, has %d", ops)
	}
	switch {
	case c.Eq != nil:
		return Eq(c.Col, c.Eq), nil
	case c.Range != nil:
		if len(c.Range) != 2 {
			return Predicate{}, fmt.Errorf("nsg: range wants [lo,hi], got %d values", len(c.Range))
		}
		return Range(c.Col, c.Range[0], c.Range[1]), nil
	case c.In != nil:
		return In(c.Col, c.In...), nil
	case c.HasTag != nil:
		return HasTag(c.Col, *c.HasTag), nil
	case c.And != nil:
		kids, err := unmarshalClauses(c.And, depth, clauses)
		if err != nil {
			return Predicate{}, err
		}
		return And(kids...), nil
	default:
		kids, err := unmarshalClauses(c.Or, depth, clauses)
		if err != nil {
			return Predicate{}, err
		}
		return Or(kids...), nil
	}
}

func unmarshalClauses(raw []json.RawMessage, depth int, clauses *int) ([]Predicate, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("nsg: and/or wants at least one clause")
	}
	kids := make([]Predicate, len(raw))
	for i, r := range raw {
		p, err := unmarshalPredicate(r, depth+1, clauses)
		if err != nil {
			return nil, err
		}
		kids[i] = p
	}
	return kids, nil
}
