package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// libSearch is the paper's own measurement through the library: a heap
// float32 index built with DefaultOptions, searched by 2 goroutines in a
// closed loop with k=10, l=60. No wire path runs.
type libSearch struct {
	e       *env
	base    vecmath.Matrix
	queries vecmath.Matrix
	gt      [][]int32
	idx     *nsg.Index

	// Traced-run fixture: the same graph built through the internal
	// layers, so core and the kernel can be called directly.
	core               *core.NSG
	ctx                *core.SearchContext
	knnTime, nsgTime   time.Duration
	hops, comps, nsRow []float64
	chunks             [][]int32
	out                []float32
}

const (
	libL           = 60
	libWorkers     = 2
	libSampleEvery = 8 // traced: every 8th request of worker 0 is recorded
)

func (w *libSearch) gen() error {
	ds, err := dataset.SIFTLike(dataset.Config{N: w.e.cfg.sz.libN, Queries: w.e.cfg.sz.libQ, GTK: k, Seed: w.e.cfg.seed})
	if err != nil {
		return err
	}
	w.base, w.queries, w.gt = ds.Base, ds.Queries, ds.GT
	return nil
}

func (w *libSearch) setup() (time.Duration, error) {
	data := append([]float32(nil), w.base.Data...) // BuildFromFlat takes ownership
	start := time.Now()
	idx, err := nsg.BuildFromFlat(data, w.base.Dim, nsg.DefaultOptions())
	if err != nil {
		return 0, err
	}
	idx.SearchWithPool(w.queries.Row(0), k, libL)
	d := time.Since(start)
	w.idx = idx
	return d, nil
}

func (w *libSearch) teardown() { w.idx, w.core = nil, nil }

func (w *libSearch) vec(id int32) []float32 {
	if id < 0 || int(id) >= w.base.Rows {
		return nil
	}
	return w.base.Row(int(id))
}

func (w *libSearch) loop(d time.Duration, tr *tracer) loopOut {
	tallies := make([]tally, libWorkers)
	nq := w.queries.Rows
	per := closedLoop(libWorkers, d, func(g, i int) (time.Duration, int) {
		qi := (g*nq/libWorkers + i) % nq
		q := w.queries.Row(qi)
		start := time.Now()
		ids, dists := w.idx.SearchWithPool(q, k, libL)
		dur := time.Since(start)
		t := &tallies[g]
		t.attempted++
		corrupt(w.e.cfg.corrupt, i, ids, dists, -1)
		if why := checkAnswer(q, ids, dists, w.vec, nil); why != "" {
			t.fail(why)
		}
		t.recall(recallAt(ids, w.gt[qi]))
		if tr != nil && g == 0 {
			w.replay(tr, q, start, dur, i%libSampleEvery == 0)
		}
		return dur, 1
	})
	var out loopOut
	for i := range tallies {
		out.merge(&tallies[i])
	}
	out.all = flatten(per)
	out.search = out.all
	return out
}

// prepareTrace builds the traced run's internal copy of the graph with the
// parameters nsg.DefaultOptions gives Build, timing each layer's build.
func (w *libSearch) prepareTrace() error {
	o := nsg.DefaultOptions()
	params := knngraph.DefaultParams(o.GraphK)
	params.Seed = o.Seed
	start := time.Now()
	kg, err := knngraph.BuildNNDescent(w.base, params)
	if err != nil {
		return fmt.Errorf("knngraph: %w", err)
	}
	w.knnTime = time.Since(start)
	start = time.Now()
	g, _, err := core.NSGBuild(kg, w.base, core.BuildParams{L: o.BuildL, M: o.MaxDegree, Seed: o.Seed})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	w.nsgTime = time.Since(start)
	w.core, w.ctx = g, core.NewSearchContext()
	return nil
}

// replay re-issues one request of worker 0 beneath its top call: core
// search with a reused SearchContext, then the kernel work that search did
// — L2ToRows over as many rows as it computed distances, in neighbor-list
// chunks gathered outward from its answer. The core copy of the graph is
// searched on every request, so its rows are as warm in worker 0's cache
// as the index's; spans are recorded for sampled requests only.
func (w *libSearch) replay(tr *tracer, q []float32, start time.Time, dur time.Duration, sampled bool) {
	if !sampled {
		w.core.SearchWithHopsCtx(w.ctx, q, k, libL, nil)
		return
	}
	req := tr.req()
	tr.record(req, "nsg", "", start, start.Add(dur))
	// Timed without a counter, as Index.SearchWithPool calls it; the
	// counted repeat supplies hops and distance computations.
	tr.call(req, "core", "nsg", func() { w.core.SearchWithHopsCtx(w.ctx, q, k, libL, nil) })
	var counter vecmath.Counter
	res := w.core.SearchWithHopsCtx(w.ctx, q, k, libL, &counter)
	rows := int(counter.Count())
	w.hops = append(w.hops, float64(res.Hops))
	w.comps = append(w.comps, float64(rows))

	f := w.core.FlatView()
	w.chunks = w.chunks[:0]
	frontier := make([]int32, 0, 64)
	for _, n := range res.Neighbors {
		frontier = append(frontier, n.ID)
	}
	for h, left := 0, rows; left > 0 && h < len(frontier); h++ {
		nb := f.Neighbors(frontier[h])
		if len(nb) > left {
			nb = nb[:left]
		}
		w.chunks = append(w.chunks, nb)
		left -= len(nb)
		frontier = append(frontier, nb...)
	}
	if cap(w.out) < w.core.M+64 {
		w.out = make([]float32, w.core.M+64)
	}
	kstart := time.Now()
	for _, c := range w.chunks {
		vecmath.L2ToRows(w.core.Base, q, c, w.out[:len(c)])
	}
	kend := time.Now()
	tr.record(req, "vecmath", "nsg", kstart, kend)
	if rows > 0 {
		w.nsRow = append(w.nsRow, float64(kend.Sub(kstart).Nanoseconds())/float64(rows))
	}
}

func (w *libSearch) probe(tr *tracer, _ *loopOut, r *results) error {
	nsgUS, coreUS := tr.micros("nsg"), tr.micros("core")
	r.add("knngraph.build_s", w.knnTime.Seconds(), "s", 1)
	r.add("core.build_s", w.nsgTime.Seconds(), "s", 1)
	r.add("core.search_us", median(coreUS), "us", len(coreUS))
	r.add("core.hops", mean(w.hops), "count", len(w.hops))
	r.add("core.dist_comps", mean(w.comps), "count", len(w.comps))
	r.add("vecmath.ns_per_row", median(w.nsRow), "ns", len(w.nsRow))
	r.add("vecmath.bytes_per_q", mean(w.comps)*float64(w.base.Dim)*4, "bytes", 0)
	r.add("nsg.search_us", median(nsgUS), "us", len(nsgUS))
	r.add("nsg.overhead_us", median(nsgUS)-median(coreUS), "us", 0)

	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		w.idx.SearchWithPool(w.queries.Row(i%w.queries.Rows), k, libL)
	}
	runtime.ReadMemStats(&m1)
	r.add("nsg.allocs_per_q", float64(m1.Mallocs-m0.Mallocs)/n, "count", n)
	tr.waterfall(r, "lib-search", []string{"nsg", "core", "vecmath"})
	return nil
}

func (w *libSearch) peakRSS() (float64, error) { return peakRSSMiB(os.Getpid()) }
