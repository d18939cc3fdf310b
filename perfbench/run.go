package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one benchmark workload: a fixture (index, and servers for
// the HTTP workloads) and the closed loop that drives it.
type workload interface {
	// gen makes the inputs from the seed. Untimed.
	gen() error
	// setup builds a fresh fixture from the inputs and returns the time
	// from inputs in memory to the first servable query.
	setup() (time.Duration, error)
	// teardown stops the fixture's servers and drops the index.
	teardown()
	// loop drives the fixture for d. With a tracer it also replays a
	// sample of its requests at each layer beneath the top call.
	loop(d time.Duration, tr *tracer) loopOut
	// prepareTrace builds what the traced loop's replays call into.
	// Untimed; it runs after the untraced half of a traced run.
	prepareTrace() error
	// probe adds the workload's per-layer metrics after the traced loop
	// that produced out.
	probe(tr *tracer, out *loopOut, r *results) error
	// peakRSS is the summed VmHWM of the processes holding the index, MiB.
	peakRSS() (float64, error)
}

// loopOut is what one closed loop measured.
type loopOut struct {
	tally
	all    []sample // every timed operation, for qps
	search []sample // single-query search requests
	batch  []sample // /search/batch requests
	insert []sample // /insert requests
}

// fixtures are every workload the traced run covers: the two in
// BENCHMARK.json and router-wire, which is traced only.
var fixtures = []string{"lib-search", "router-wire", "serve-live-filtered"}

func (e *env) workload(name string) (workload, error) {
	switch name {
	case "lib-search":
		return &libSearch{e: e}, nil
	case "router-wire":
		return &routerWire{e: e}, nil
	case "serve-live-filtered":
		return &serveLive{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (e *env) runAll() (*results, error) {
	r := &results{}
	if !e.cfg.trace {
		w, err := e.workload(e.cfg.workload)
		if err != nil {
			return nil, err
		}
		return r, e.measure(w, r)
	}
	// A traced run traces the named workload first (its tracing overhead is
	// the one reported), then the other fixtures, so every traced run
	// reports every per-layer metric.
	tr := newTracer()
	order := []string{e.cfg.workload}
	for _, n := range fixtures {
		if n != e.cfg.workload {
			order = append(order, n)
		}
	}
	for i, name := range order {
		w, err := e.workload(name)
		if err != nil {
			return nil, err
		}
		if err := e.traced(name, w, tr, r, i == 0); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	path := filepath.Join(e.cfg.work, "trace", fmt.Sprintf("%s-seed%d.jsonl", e.cfg.workload, e.cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	r.note("spans written to %s", path)
	return r, nil
}

// measure is the untraced run. It sets up setupReps times and measures a
// closed loop of seconds/setupReps after each set-up; every reported
// figure is the median over the set-ups (recall: the mean over all
// answers). Spreading the measurement over several set-ups lets the median
// discard a slice that the shared host disturbed.
func (e *env) measure(w workload, r *results) error {
	if err := w.gen(); err != nil {
		return err
	}
	defer w.teardown()
	reps := e.cfg.sz.setupReps
	slice := e.cfg.seconds / time.Duration(reps)
	var setup, qps, p50, p99, batch, ins50, ins99, rss []float64
	var nAll, nSearch, nBatch, nInsert int
	for i := 0; i < reps; i++ {
		w.teardown()
		runtime.GC()
		d, err := w.setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, d.Seconds())
		warm := w.loop(e.cfg.sz.warm, nil)
		r.merge(&warm.tally)
		out := w.loop(slice, nil)
		r.merge(&out.tally)
		qps = append(qps, qpsWindows(out.all, slice, 10))
		ms := millis(out.search)
		p50, p99 = append(p50, percentile(ms, 50)), append(p99, percentile(ms, 99))
		nAll, nSearch = nAll+len(out.all), nSearch+len(ms)
		if len(out.batch) > 0 {
			batch = append(batch, percentile(millis(out.batch), 50))
			nBatch += len(out.batch)
		}
		if len(out.insert) > 0 {
			ms := millis(out.insert)
			ins50, ins99 = append(ins50, percentile(ms, 50)), append(ins99, percentile(ms, 99))
			nInsert += len(ms)
		}
		mb, err := w.peakRSS()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
	}
	r.add("setup_s", median(setup), "s", len(setup))
	r.add("qps", median(qps), "queries/s", nAll)
	r.add("search_p50_ms", median(p50), "ms", nSearch)
	r.add("search_p99_ms", median(p99), "ms", nSearch)
	if nBatch > 0 {
		r.add("batch_p50_ms", median(batch), "ms", nBatch)
	}
	if nInsert > 0 {
		r.add("insert_p50_ms", median(ins50), "ms", nInsert)
		r.add("insert_p99_ms", median(ins99), "ms", nInsert)
	}
	r.add("recall_at_10", r.meanRecall(), "fraction", int(r.recallN))
	r.add("peak_rss_mb", median(rss), "MiB", 0)
	return nil
}

// traced sets up once, runs half the measured time untraced and half
// traced, then probes the layers. The difference between the two halves'
// end-to-end figures is the tracing overhead.
func (e *env) traced(name string, w workload, tr *tracer, r *results, primary bool) error {
	if err := w.gen(); err != nil {
		return err
	}
	defer w.teardown()
	runtime.GC()
	d, err := w.setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	warm := w.loop(e.cfg.sz.warm, nil)
	r.merge(&warm.tally)
	half := e.cfg.seconds / 2
	a := w.loop(half, nil)
	r.merge(&a.tally)
	if err := w.prepareTrace(); err != nil {
		return fmt.Errorf("trace set-up: %w", err)
	}
	b := w.loop(half, tr)
	r.merge(&b.tally)

	pa, pb := percentile(millis(a.search), 50), percentile(millis(b.search), 50)
	qa, qb := qpsWindows(a.all, half, 5), qpsWindows(b.all, half, 5)
	r.note("%s: set-up %.3f s; untraced search_p50 %.4f ms qps %.1f; traced search_p50 %.4f ms qps %.1f; recall_at_10 %.4f",
		name, d.Seconds(), pa, qa, pb, qb, b.meanRecall())
	if primary {
		r.add("trace.overhead_us", (pb-pa)*1e3, "us", len(b.search))
	}
	return w.probe(tr, &b, r)
}
