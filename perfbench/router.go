package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// routerWire is the deployed read path: one connection in a closed loop
// sending pre-encoded JSON POST /search (k=10, l=20) to nsgrouter, which
// fronts 3 nsgserve -mmap processes, each serving one single-shard
// SaveMapped container over a contiguous third of the corpus.
type routerWire struct {
	e       *env
	base    vecmath.Matrix
	queries vecmath.Matrix
	gt      [][]int32
	bodies  [][]byte // pre-encoded /search bodies, one per query

	files  []string
	shards []*kid
	router *kid
	c      *client
	topo   cluster.Topology
	resp   searchResp

	// Traced-run fixture: the same fan-out in process, a direct client
	// to shard 0, and shard 0's container opened in process.
	inproc *cluster.Router
	direct *client
	local  *nsg.ShardedIndex
	openMS []float64
	stats0 shardStats
}

const (
	wireShards      = 3
	wireL           = 20
	wireSampleEvery = 4
)

type searchReq struct {
	Query []float32 `json:"query"`
	K     int       `json:"k"`
	L     int       `json:"l"`
}

type searchResp struct {
	IDs   []int32   `json:"ids"`
	Dists []float32 `json:"dists"`
}

// shardStats is the part of nsgserve's /stats the benchmark reads.
type shardStats struct {
	Queries          uint64  `json:"queries"`
	MeanSearchMicros float64 `json:"mean_search_micros"`
	RSSBytes         int64   `json:"rss_bytes"`
	DeltaDepth       int     `json:"delta_depth"`
	LastPublishAgeMs float64 `json:"last_publish_age_ms"`
	Publishes        uint64  `json:"publishes"`
	Drained          uint64  `json:"drained"`
}

func getStats(c *client, addr string) (shardStats, error) {
	var st shardStats
	status, body, err := c.get(context.Background(), "http://"+addr+"/stats")
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("GET %s/stats: status %d", addr, status)
	}
	return st, json.Unmarshal(body, &st)
}

func (w *routerWire) gen() error {
	sz := w.e.cfg.sz
	ds, err := dataset.SIFTLike(dataset.Config{N: wireShards * sz.shardN, Queries: sz.wireQ, GTK: k, Seed: w.e.cfg.seed})
	if err != nil {
		return err
	}
	w.base, w.queries, w.gt = ds.Base, ds.Queries, ds.GT
	w.bodies = make([][]byte, w.queries.Rows)
	for i := range w.bodies {
		if w.bodies[i], err = json.Marshal(searchReq{w.queries.Row(i), k, wireL}); err != nil {
			return err
		}
	}
	return nil
}

func (w *routerWire) setup() (time.Duration, error) {
	n := w.e.cfg.sz.shardN
	parts := make([][]float32, wireShards) // BuildShardedFromFlat takes ownership
	for s := range parts {
		parts[s] = append([]float32(nil), w.base.Slice(s*n, (s+1)*n).Data...)
	}
	w.c = newClient()
	start := time.Now()
	w.files = w.files[:0]
	for s, data := range parts {
		ix, err := nsg.BuildShardedFromFlat(data, w.base.Dim, nsg.ShardedOptions{Shards: 1, Shard: nsg.DefaultOptions()})
		if err != nil {
			return 0, err
		}
		path := filepath.Join(w.e.tmp, fmt.Sprintf("shard%d.nsms", s))
		err = ix.SaveMapped(path)
		ix.Close()
		if err != nil {
			return 0, err
		}
		w.files = append(w.files, path)
	}
	w.topo = cluster.Topology{}
	for s, path := range w.files {
		kd, err := w.e.start("nsgserve", "-index", path, "-mmap")
		if err != nil {
			return 0, err
		}
		w.shards = append(w.shards, kd)
		w.topo.Shards = append(w.topo.Shards, cluster.Shard{Replicas: []string{kd.addr}, IDOffset: int32(s * n)})
	}
	for _, kd := range w.shards {
		if err := w.e.waitReady(w.c, kd); err != nil {
			return 0, err
		}
	}
	topoPath := filepath.Join(w.e.tmp, "topology.json")
	raw, err := json.Marshal(w.topo)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(topoPath, raw, 0o644); err != nil {
		return 0, err
	}
	if w.router, err = w.e.start("nsgrouter", "-topology", topoPath); err != nil {
		return 0, err
	}
	if err := w.e.waitReady(w.c, w.router); err != nil {
		return 0, err
	}
	if status, _, err := w.c.post(w.url(), w.bodies[0]); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("first query through the router: status %d, %v", status, err)
	}
	return time.Since(start), nil
}

func (w *routerWire) url() string { return "http://" + w.router.addr + "/search" }

func (w *routerWire) teardown() {
	if w.inproc != nil {
		w.inproc.Close()
		w.inproc = nil
	}
	if w.local != nil {
		w.local.Close()
		w.local = nil
	}
	for _, c := range []*client{w.c, w.direct} {
		if c != nil {
			c.close()
		}
	}
	w.c, w.direct = nil, nil
	if w.router != nil {
		w.e.kill(w.router)
		w.router = nil
	}
	for _, kd := range w.shards {
		w.e.kill(kd)
	}
	w.shards = nil
}

func (w *routerWire) vec(id int32) []float32 {
	if id < 0 || int(id) >= w.base.Rows {
		return nil
	}
	return w.base.Row(int(id))
}

func (w *routerWire) loop(d time.Duration, tr *tracer) loopOut {
	var t tally
	per := closedLoop(1, d, func(_, i int) (time.Duration, int) {
		qi := i % len(w.bodies)
		start := time.Now()
		status, body, err := w.c.post(w.url(), w.bodies[qi])
		dur := time.Since(start)
		t.attempted++
		switch {
		case err != nil:
			t.fail("transport")
			return dur, 0
		case status != http.StatusOK:
			t.fail("status")
			return dur, 0
		}
		if err := json.Unmarshal(body, &w.resp); err != nil {
			t.fail("decode")
			return dur, 0
		}
		q := w.queries.Row(qi)
		corrupt(w.e.cfg.corrupt, i, w.resp.IDs, w.resp.Dists, -1)
		if why := checkAnswer(q, w.resp.IDs, w.resp.Dists, w.vec, nil); why != "" {
			t.fail(why)
		}
		t.recall(recallAt(w.resp.IDs, w.gt[qi]))
		if tr != nil && i%wireSampleEvery == 0 {
			w.replay(tr, &t, qi, start, dur)
		}
		return dur, 1
	})
	out := loopOut{tally: t, all: per[0]}
	out.search = out.all
	return out
}

func (w *routerWire) prepareTrace() error {
	var err error
	w.inproc, err = cluster.New(w.topo, cluster.NewHTTPTransport(), cluster.Options{
		// nsgrouter's default flags.
		AttemptTimeout: 2 * time.Second,
		RetryBackoff:   5 * time.Millisecond,
		Partial:        cluster.PartialFail,
		EjectAfter:     3,
		ProbeInterval:  time.Second,
		Seed:           1,
	})
	if err != nil {
		return err
	}
	w.direct = newClient()
	// mstore: open shard 0's container a few times; keep the last open.
	for i := 0; i < 5; i++ {
		if w.local != nil {
			w.local.Close()
		}
		start := time.Now()
		w.local, err = nsg.OpenMappedSharded(w.files[0], nsg.MapOptions{})
		if err != nil {
			return err
		}
		w.openMS = append(w.openMS, float64(time.Since(start).Nanoseconds())/1e6)
	}
	w.stats0, err = getStats(w.direct, w.shards[0].addr)
	return err
}

// replay re-issues one sampled request beneath the router: the same
// fan-out in process, one shard over HTTP, and that shard's search in
// process. Shard 0 answers with shard-local ids; the request is the same.
func (w *routerWire) replay(tr *tracer, t *tally, qi int, start time.Time, dur time.Duration) {
	req := tr.req()
	tr.record(req, "nsgrouter", "", start, start.Add(dur))
	q := w.queries.Row(qi)
	var err error
	tr.call(req, "cluster", "nsgrouter", func() {
		_, _, err = w.inproc.Search(context.Background(), q, k, wireL)
	})
	var status int
	var err2 error
	tr.call(req, "nsgserve", "nsgrouter", func() {
		status, _, err2 = w.direct.post("http://"+w.shards[0].addr+"/search", w.bodies[qi])
	})
	tr.call(req, "distsearch", "nsgrouter", func() {
		w.local.SearchWithPool(q, k, wireL)
	})
	t.attempted += 2
	if err != nil {
		t.fail("replay-cluster")
	}
	if err2 != nil || status != http.StatusOK {
		t.fail("replay-nsgserve")
	}
}

func (w *routerWire) probe(tr *tracer, _ *loopOut, r *results) error {
	routerUS, clusterUS := tr.micros("nsgrouter"), tr.micros("cluster")
	httpUS, distUS := tr.micros("nsgserve"), tr.micros("distsearch")
	st, err := getStats(w.direct, w.shards[0].addr)
	if err != nil {
		return err
	}
	handler := 0.0
	if dq := float64(st.Queries) - float64(w.stats0.Queries); dq > 0 {
		handler = (st.MeanSearchMicros*float64(st.Queries) - w.stats0.MeanSearchMicros*float64(w.stats0.Queries)) / dq
	}
	m := w.inproc.Metrics()
	rss := 0.0
	for _, kd := range w.shards {
		s, err := getStats(w.direct, kd.addr)
		if err != nil {
			return err
		}
		rss += float64(s.RSSBytes) / (1 << 20)
	}
	r.add("nsgrouter.overhead_us", median(routerUS)-median(clusterUS), "us", 0)
	r.add("cluster.search_us", median(clusterUS), "us", len(clusterUS))
	r.add("cluster.overhead_us", median(clusterUS)-median(httpUS), "us", 0)
	r.add("cluster.attempts_per_q", float64(m.Attempts)/float64(max(m.Queries, 1)), "count", int(m.Queries))
	r.add("nsgserve.http_us", median(httpUS), "us", len(httpUS))
	r.add("nsgserve.handler_us", handler, "us", int(st.Queries-w.stats0.Queries))
	r.add("nsgserve.wire_us", median(httpUS)-handler, "us", 0)
	r.add("distsearch.search_us", median(distUS), "us", len(distUS))
	r.add("mstore.open_ms", median(w.openMS), "ms", len(w.openMS))
	r.add("mstore.rss_mb", rss, "MiB", 0)
	tr.waterfall(r, "router-wire", []string{"nsgrouter", "cluster", "nsgserve", "distsearch"})
	return nil
}

func (w *routerWire) peakRSS() (float64, error) {
	total := 0.0
	for _, kd := range append([]*kid{w.router}, w.shards...) {
		mb, err := peakRSSMiB(kd.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
