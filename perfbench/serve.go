package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// serveLive drives one nsgserve -index process (heap, live updates on)
// over a 2-shard sq8 index whose bundle carries a metadata store. One
// reader connection runs a closed loop of filtered /search requests
// (4 of every 5 requests, even over 50%, 10% and 1% selectivity) and
// /search/batch requests of 16 unfiltered queries; one writer connection
// sends /insert at insertRate, inserting held-out rows of the generator.
type serveLive struct {
	e       *env
	base    vecmath.Matrix // indexed rows
	hold    vecmath.Matrix // held-out rows the writer inserts, in order
	queries vecmath.Matrix

	price []int64
	cat   []string
	tags  [][]string
	rare  []bool

	filters  [bands][][]byte  // predicate JSON per band and query
	bodies   [bands][][]byte  // pre-encoded filtered /search bodies
	gt       [bands][][]int32 // exact filtered top-k per band and query
	inserts  [][]byte         // pre-encoded /insert bodies
	holdJSON [][]byte         // JSON array text of each held-out row
	baseJSON [][]byte         // JSON array text of the first rywBase base rows
	tails    [][]byte         // comma-joined JSON text of batch queries 2..16
	ops      []int            // the reader's op cycle: a band, or opBatch

	bundle string
	srv    *kid
	rc, wc *client
	sent   atomic.Int64 // inserts sent; ids below liveN+sent may be live
	acked  atomic.Int64 // index of the last acknowledged insert, -1 before any
	nextQ  int

	// Traced-run fixture: the same bundle loaded in process, with live
	// updates on and every insert the server has acknowledged replayed.
	local       *nsg.ShardedIndex
	comps       [bands][]float64
	codeComps   []float64
	depthMax    float64
	ageMax      float64
	lastStats   shardStats
	statsErrors int
}

const (
	bands       = 3
	opBatch     = bands
	serveL      = 60
	batchSize   = 16
	rywBase     = 64
	serveShards = 2
	// Every serveSampleEvery-th reader request and every insert is
	// replayed in process on a traced run.
	serveSampleEvery = 4
)

var bandNames = [bands]string{"sel50", "sel10", "sel01"}

func (w *serveLive) gen() error {
	sz := w.e.cfg.sz
	n := sz.liveN
	// GTK 1: the generator's unfiltered ground truth is not used; the
	// filtered oracle below is computed over the indexed rows only.
	ds, err := dataset.SIFTLike(dataset.Config{N: n + sz.holdout, Queries: sz.liveQ, GTK: 1, Seed: w.e.cfg.seed})
	if err != nil {
		return err
	}
	w.base, w.hold, w.queries = ds.Base.Slice(0, n), ds.Base.Slice(n, n+sz.holdout), ds.Queries

	// Metadata: price uniform in 1..1000 (two halves: 50%), category one of
	// ten (10%), and a "rare" tag on exactly 1% of rows.
	rng := rand.New(rand.NewSource(w.e.cfg.seed))
	w.price, w.cat, w.tags, w.rare = make([]int64, n), make([]string, n), make([][]string, n), make([]bool, n)
	for i := 0; i < n; i++ {
		w.price[i] = 1 + rng.Int63n(1000)
		w.cat[i] = "c" + strconv.Itoa(rng.Intn(10))
		w.tags[i] = []string{"t" + strconv.Itoa(rng.Intn(4))}
	}
	for _, i := range rng.Perm(n)[:max(n/100, k)] {
		w.rare[i] = true
		w.tags[i] = append(w.tags[i], "rare")
	}

	for b := 0; b < bands; b++ {
		w.filters[b] = make([][]byte, w.queries.Rows)
		w.bodies[b] = make([][]byte, w.queries.Rows)
		w.gt[b] = make([][]int32, w.queries.Rows)
		for qi := range w.filters[b] {
			w.filters[b][qi] = filterJSON(b, qi)
			body, err := json.Marshal(struct {
				Query  []float32       `json:"query"`
				K      int             `json:"k"`
				L      int             `json:"l"`
				Filter json.RawMessage `json:"filter"`
			}{w.queries.Row(qi), k, serveL, w.filters[b][qi]})
			if err != nil {
				return err
			}
			w.bodies[b][qi] = body
		}
	}
	var wg sync.WaitGroup
	for b := 0; b < bands; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range w.gt[b] {
				w.gt[b][qi] = w.filteredTruth(b, qi)
			}
		}()
	}
	wg.Wait()

	w.holdJSON, w.inserts = make([][]byte, w.hold.Rows), make([][]byte, w.hold.Rows)
	for j := range w.holdJSON {
		if w.holdJSON[j], err = json.Marshal(w.hold.Row(j)); err != nil {
			return err
		}
		w.inserts[j] = append(append([]byte(`{"vector":`), w.holdJSON[j]...), '}')
	}
	w.baseJSON = make([][]byte, rywBase)
	for i := range w.baseJSON {
		if w.baseJSON[i], err = json.Marshal(w.base.Row(i % n)); err != nil {
			return err
		}
	}
	w.tails = make([][]byte, w.queries.Rows)
	for i := range w.tails {
		var tail []byte
		for j := 1; j < batchSize; j++ {
			row, err := json.Marshal(w.queries.Row((i + j) % w.queries.Rows))
			if err != nil {
				return err
			}
			tail = append(append(tail, ','), row...)
		}
		w.tails[i] = tail
	}

	// The op cycle: 4 filtered requests per band and 3 batches in 15,
	// shuffled by the seed.
	w.ops = w.ops[:0]
	for b := 0; b < bands; b++ {
		w.ops = append(w.ops, b, b, b, b)
	}
	w.ops = append(w.ops, opBatch, opBatch, opBatch)
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	return nil
}

// filterJSON is query qi's predicate in band b, in nsgserve's wire form.
func filterJSON(b, qi int) []byte {
	switch b {
	case 0:
		if qi%2 == 0 {
			return []byte(`{"col":"price","range":[1,500]}`)
		}
		return []byte(`{"col":"price","range":[501,1000]}`)
	case 1:
		return []byte(`{"col":"category","eq":"c` + strconv.Itoa(qi%10) + `"}`)
	}
	return []byte(`{"col":"tags","has_tag":"rare"}`)
}

// passes evaluates query qi's band-b predicate on the benchmark's own copy
// of the metadata. Inserted rows carry no metadata and pass nothing.
func (w *serveLive) passes(b, qi int, id int32) bool {
	if id < 0 || int(id) >= w.base.Rows {
		return false
	}
	switch b {
	case 0:
		if qi%2 == 0 {
			return w.price[id] <= 500
		}
		return w.price[id] > 500
	case 1:
		return w.cat[id] == "c"+strconv.Itoa(qi%10)
	}
	return w.rare[id]
}

func (w *serveLive) filteredTruth(b, qi int) []int32 {
	q := w.queries.Row(qi)
	top := vecmath.NewTopK(k)
	for i := 0; i < w.base.Rows; i++ {
		if w.passes(b, qi, int32(i)) {
			top.Push(int32(i), l2(q, w.base.Row(i)))
		}
	}
	res := top.Result()
	ids := make([]int32, len(res))
	for i, n := range res {
		ids[i] = n.ID
	}
	return ids
}

func (w *serveLive) setup() (time.Duration, error) {
	data := append([]float32(nil), w.base.Data...) // BuildShardedFromFlat takes ownership
	w.rc, w.wc = newClient(), newClient()
	w.bundle = filepath.Join(w.e.tmp, "live.nsgd")
	opts := nsg.ShardedOptions{Shards: serveShards, Shard: nsg.DefaultOptions()}
	opts.Shard.Quantize = nsg.QuantSQ8
	start := time.Now()
	ix, err := nsg.BuildShardedFromFlat(data, w.base.Dim, opts)
	if err != nil {
		return 0, err
	}
	md := nsg.NewMetadata(w.base.Rows)
	if err := md.AddInt64("price", w.price); err != nil {
		return 0, err
	}
	if err := md.AddEnum("category", w.cat); err != nil {
		return 0, err
	}
	if err := md.AddTags("tags", w.tags); err != nil {
		return 0, err
	}
	if err := ix.SetMetadata(md); err != nil {
		return 0, err
	}
	err = ix.Save(w.bundle)
	ix.Close()
	if err != nil {
		return 0, err
	}
	if w.srv, err = w.e.start("nsgserve", "-index", w.bundle); err != nil {
		return 0, err
	}
	if err := w.e.waitReady(w.rc, w.srv); err != nil {
		return 0, err
	}
	if status, _, err := w.rc.post(w.url("/search"), w.bodies[0][0]); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("first query: status %d, %v", status, err)
	}
	d := time.Since(start)
	w.sent.Store(0)
	w.acked.Store(-1)
	return d, nil
}

func (w *serveLive) url(path string) string { return "http://" + w.srv.addr + path }

func (w *serveLive) teardown() {
	if w.local != nil {
		w.local.Close()
		w.local = nil
	}
	for _, c := range []*client{w.rc, w.wc} {
		if c != nil {
			c.close()
		}
	}
	w.rc, w.wc = nil, nil
	if w.srv != nil {
		w.e.kill(w.srv)
		w.srv = nil
	}
}

// vec resolves a live id: an indexed row, or a held-out row the writer
// has sent (the server numbers inserts consecutively after the base).
func (w *serveLive) vec(id int32) []float32 {
	switch {
	case id < 0:
		return nil
	case int(id) < w.base.Rows:
		return w.base.Row(int(id))
	case int64(int(id)-w.base.Rows) < w.sent.Load():
		return w.hold.Row(int(id) - w.base.Rows)
	}
	return nil
}

type batchResp struct {
	Results []searchResp `json:"results"`
}

func (w *serveLive) loop(d time.Duration, tr *tracer) loopOut {
	var rt, wt tally
	stop := make(chan struct{})
	var inserts []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inserts = w.writer(stop, tr, &wt)
	}()

	var resp searchResp
	var bresp batchResp
	var body []byte
	qs := make([][]float32, batchSize)
	kinds := make([]int, 0, 1<<14)
	per := closedLoop(1, d, func(_, i int) (time.Duration, int) {
		op := w.ops[i%len(w.ops)]
		kinds = append(kinds, op)
		qi := w.nextQ % w.queries.Rows
		w.nextQ++
		rt.attempted++
		if op != opBatch {
			start := time.Now()
			status, raw, err := w.rc.post(w.url("/search"), w.bodies[op][qi])
			dur := time.Since(start)
			if why := decode(raw, status, err, &resp); why != "" {
				rt.fail(why)
				return dur, 0
			}
			q := w.queries.Row(qi)
			corrupt(w.e.cfg.corrupt, i, resp.IDs, resp.Dists, w.failing(op, qi))
			pass := func(id int32) bool { return w.passes(op, qi, id) }
			if why := checkAnswer(q, resp.IDs, resp.Dists, w.vec, pass); why != "" {
				rt.fail(why)
			}
			rt.recall(recallAt(resp.IDs, w.gt[op][qi]))
			if tr != nil && i%serveSampleEvery == 0 {
				w.replayFiltered(tr, op, qi, start, dur)
			}
			return dur, 1
		}

		// Batch: query 1 is the most recently acknowledged insert (a base
		// row before the first), which must come back at distance 0.
		j := w.acked.Load()
		rywID := int32(qi % rywBase)
		ryw := w.baseJSON[rywID]
		if j >= 0 {
			rywID, ryw = int32(w.base.Rows)+int32(j), w.holdJSON[j]
		}
		body = append(append(append(body[:0], `{"k":10,"l":60,"queries":[`...), ryw...), w.tails[qi]...)
		body = append(body, "]}"...)
		start := time.Now()
		status, raw, err := w.rc.post(w.url("/search/batch"), body)
		dur := time.Since(start)
		if why := decode(raw, status, err, &bresp); why != "" {
			rt.fail(why)
			return dur, 0
		}
		if len(bresp.Results) != batchSize {
			rt.fail("count")
			return dur, 0
		}
		qs[0] = w.vec(rywID)
		for j := 1; j < batchSize; j++ {
			qs[j] = w.queries.Row((qi + j) % w.queries.Rows)
		}
		for j, res := range bresp.Results {
			corrupt(w.e.cfg.corrupt, i+j, res.IDs, res.Dists, -1)
			if why := checkAnswer(qs[j], res.IDs, res.Dists, w.vec, nil); why != "" {
				rt.fail(why)
				return dur, batchSize
			}
		}
		if !hasAtZero(bresp.Results[0], rywID) {
			rt.fail("read-your-writes")
		}
		if tr != nil && i%serveSampleEvery == 0 {
			w.replayBatch(tr, qs, start, dur)
		}
		return dur, batchSize
	})
	close(stop)
	wg.Wait()

	out := loopOut{all: per[0], insert: inserts}
	out.merge(&rt)
	out.merge(&wt)
	for i, s := range per[0] {
		if kinds[i] == opBatch {
			out.batch = append(out.batch, s)
		} else {
			out.search = append(out.search, s)
		}
	}
	return out
}

// decode turns one HTTP exchange into a response, or the failed check.
func decode(raw []byte, status int, err error, into any) string {
	switch {
	case err != nil:
		return "transport"
	case status != http.StatusOK:
		return "status"
	case json.Unmarshal(raw, into) != nil:
		return "decode"
	}
	return ""
}

func hasAtZero(r searchResp, id int32) bool {
	for i, got := range r.IDs {
		if got == id && r.Dists[i] == 0 {
			return true
		}
	}
	return false
}

// failing returns a row that fails query qi's band-b predicate, for the
// smoke test's filter corruption.
func (w *serveLive) failing(b, qi int) int32 {
	if w.e.cfg.corrupt != "filter" {
		return -1
	}
	for i := 0; i < w.base.Rows; i++ {
		if !w.passes(b, qi, int32(i)) {
			return int32(i)
		}
	}
	return -1
}

// writer sends the held-out rows as /insert requests on a fixed schedule
// of insertRate per second until stop closes. Latency runs from sending
// to the acknowledgement.
func (w *serveLive) writer(stop <-chan struct{}, tr *tracer, t *tally) []sample {
	var out []sample
	var resp struct {
		ID int32 `json:"id"`
	}
	const interval = time.Second / insertRate
	begin := time.Now()
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for n := 1; ; n++ {
		select {
		case <-stop:
			return out
		case <-timer.C:
		}
		timer.Reset(time.Until(begin.Add(time.Duration(n+1) * interval)))
		j := w.sent.Load()
		if j >= int64(w.hold.Rows) {
			continue
		}
		w.sent.Add(1) // before sending: the id may appear in answers at once
		t.attempted++
		start := time.Now()
		status, raw, err := w.wc.post(w.url("/insert"), w.inserts[j])
		dur := time.Since(start)
		out = append(out, sample{start.Sub(begin), dur, 0})
		if why := decode(raw, status, err, &resp); why != "" {
			t.fail("insert-" + why)
			continue
		}
		if int64(resp.ID) != int64(w.base.Rows)+j {
			t.fail("insert-id")
			continue
		}
		w.acked.Store(j)
		if tr != nil {
			w.replayInsert(tr, t, int(j), start, dur, n)
		}
	}
}

func (w *serveLive) prepareTrace() error {
	var err error
	if w.local, err = nsg.LoadSharded(w.bundle); err != nil {
		return err
	}
	if err := w.local.EnableLiveUpdates(nsg.LiveOptions{MaxPending: 512, PublishInterval: 100 * time.Millisecond}); err != nil {
		return err
	}
	// Catch the copy up with the inserts the server has acknowledged, so
	// both number new rows alike.
	for j := int64(0); j < w.sent.Load(); j++ {
		if _, err := w.local.Add(w.hold.Row(int(j))); err != nil {
			return err
		}
	}
	w.depthMax, w.ageMax = 0, 0
	return nil
}

func (w *serveLive) replayFiltered(tr *tracer, b, qi int, start time.Time, dur time.Duration) {
	req := tr.req()
	tr.record(req, "nsgserve.search", "", start, start.Add(dur))
	var p nsg.Predicate
	var f *nsg.ShardedFilter
	var st nsg.SearchStats
	var err error
	tr.call(req, "meta.unmarshal", "nsgserve.search", func() { p, err = nsg.UnmarshalPredicate(w.filters[b][qi]) })
	if err != nil {
		return
	}
	tr.call(req, "meta.compile", "nsgserve.search", func() { f, err = w.local.CompileFilter(p) })
	if err != nil {
		return
	}
	tr.call(req, "core.filtered."+bandNames[b], "nsgserve.search", func() {
		_, _, st = w.local.SearchFilteredWithStats(w.queries.Row(qi), k, serveL, f)
	})
	w.comps[b] = append(w.comps[b], float64(st.DistanceComputations))
}

func (w *serveLive) replayBatch(tr *tracer, qs [][]float32, start time.Time, dur time.Duration) {
	req := tr.req()
	tr.record(req, "nsgserve.batch", "", start, start.Add(dur))
	tr.call(req, "core.batch", "nsgserve.batch", func() { w.local.SearchBatch(qs, k, serveL, 0) })
	tr.call(req, "core.solo", "nsgserve.batch", func() {
		for _, q := range qs {
			w.local.SearchWithPool(q, k, serveL)
		}
	})
	_, _, st := w.local.SearchWithStats(qs[1], k, serveL)
	w.codeComps = append(w.codeComps, float64(st.DistanceComputations))
}

// replayInsert repeats an acknowledged insert on the in-process copy, at
// the writer's rate, and every fifth insert samples the server's /stats.
func (w *serveLive) replayInsert(tr *tracer, t *tally, j int, start time.Time, dur time.Duration, n int) {
	req := tr.req()
	tr.record(req, "nsgserve.insert", "", start, start.Add(dur))
	var err error
	tr.call(req, "live.add", "nsgserve.insert", func() { _, err = w.local.Add(w.hold.Row(j)) })
	t.attempted++
	if err != nil {
		t.fail("replay-add")
	}
	if n%5 != 0 {
		return
	}
	st, err := getStats(w.wc, w.srv.addr)
	if err != nil {
		w.statsErrors++
		return
	}
	w.depthMax = max(w.depthMax, float64(st.DeltaDepth))
	w.ageMax = max(w.ageMax, st.LastPublishAgeMs)
	w.lastStats = st
}

func (w *serveLive) probe(tr *tracer, out *loopOut, r *results) error {
	if w.statsErrors > 0 {
		return fmt.Errorf("%d /stats samples failed", w.statsErrors)
	}
	unm, comp := tr.micros("meta.unmarshal"), tr.micros("meta.compile")
	r.add("meta.unmarshal_us", median(unm), "us", len(unm))
	r.add("meta.compile_us", median(comp), "us", len(comp))
	for b, name := range bandNames {
		us := tr.micros("core.filtered." + name)
		r.add("core.filtered_us."+name, median(us), "us", len(us))
		r.add("core.filtered_dist_comps."+name, mean(w.comps[b]), "count", len(w.comps[b]))
	}
	batch, solo := tr.micros("core.batch"), tr.micros("core.solo")
	r.add("core.batch_us_per_q", median(batch)/batchSize, "us", len(batch))
	r.add("core.solo_us_per_q", median(solo)/batchSize, "us", len(solo))
	r.add("quant.code_bytes_per_q", mean(w.codeComps)*float64(w.base.Dim), "bytes", 0)
	add := tr.micros("live.add")
	r.add("live.add_us", median(add), "us", len(add))
	r.add("live.delta_depth_max", w.depthMax, "count", 0)
	r.add("live.publish_age_ms_max", w.ageMax, "ms", 0)
	r.add("live.publishes", float64(w.lastStats.Publishes), "count", 0)
	r.add("live.drained", float64(w.lastStats.Drained), "count", 0)
	r.add("serve.batch_p50_ms", percentile(millis(out.batch), 50), "ms", len(out.batch))
	r.add("serve.insert_p50_ms", percentile(millis(out.insert), 50), "ms", len(out.insert))
	r.add("serve.insert_p99_ms", percentile(millis(out.insert), 99), "ms", len(out.insert))

	search := tr.micros("nsgserve.search")
	self := tr.self("nsgserve.search", "meta.unmarshal", "meta.compile",
		"core.filtered.sel50", "core.filtered.sel10", "core.filtered.sel01")
	r.note("waterfall serve-live-filtered (median span / median self time, µs):")
	r.note("  %-22s %10.1f %10.1f  (n=%d)", "nsgserve.search", median(search), median(self), len(search))
	for _, layer := range []string{"meta.unmarshal", "meta.compile", "core.filtered.sel50", "core.filtered.sel10", "core.filtered.sel01"} {
		us := tr.micros(layer)
		r.note("  %-22s %10.1f %10.1f  (n=%d)", layer, median(us), median(us), len(us))
	}
	return nil
}

func (w *serveLive) peakRSS() (float64, error) { return peakRSSMiB(w.srv.cmd.Process.Pid) }
