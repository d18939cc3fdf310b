// Command perfbench is the repository benchmark. It runs one named
// workload against the NSG library or its serving tier (nsgserve,
// nsgrouter), checks every answer, and prints its metrics: first as
// readable lines with units and sample counts, then as one JSON object on
// the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload lib-search --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	lib-search           2 goroutines, closed loop, Index.SearchWithPool(k=10, l=60)
//	serve-live-filtered  1 reader (filtered /search + /search/batch) and 1 writer
//	                     (/insert at a fixed rate) against nsgserve with live updates
//
// With --trace 0 the JSON holds the end-to-end metrics named in
// BENCHMARK.json, measured with tracing off. With --trace 1 it holds every
// per-layer metric: the run traces the named workload first and then the
// other fixtures, three in all, each at full size, so every traced run
// reports the whole waterfall. The third fixture, router-wire (1 connection, closed loop,
// POST /search to nsgrouter over 3 nsgserve -mmap shards), prices the
// router and cluster layers; it is traced only, because its end-to-end
// figures on a shared 2-vCPU host spread wider than any bound the
// benchmark could gate on. layers.go maps each per-layer metric to the
// end-to-end metric and workload it should move. Spans are written to
// .bench_build/trace.
//
// Inputs come only from --seed. A run fails (non-zero exit, correct=false)
// when an answer fails a check or recall@10 falls below the workload's
// recall floor, which BENCHMARK.json states in the workload's "why".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// deadline bounds a whole run, so a wedged child or server can never keep
// the benchmark past its time limit; cleanup still runs.
const deadline = 170 * time.Second

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var floorRE = regexp.MustCompile(`recall floor ([0-9.]+)`)

// loadSpec reads BENCHMARK.json and returns it with the named workload's
// recall floor.
func loadSpec(path, workload string) (spec, float64, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, 0, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, 0, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if w.Name != workload {
			continue
		}
		m := floorRE.FindStringSubmatch(w.Why)
		if m == nil {
			return s, 0, fmt.Errorf("%s: workload %q states no recall floor", path, workload)
		}
		f, err := strconv.ParseFloat(m[1], 64)
		return s, f, err
	}
	return s, 0, fmt.Errorf("%s: unknown workload %q", path, workload)
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	corrupt  string // "", "swap" or "filter": deliberately corrupt answers (smoke test)
	bin      string // directory holding nsgserve and nsgrouter
	work     string // scratch root (temp dirs, trace output)
	sz       sizes
}

// sizes fixes the data and set-up shape of every workload. full is what
// the benchmark measures; smoke is a tiny copy for the package's own test.
type sizes struct {
	libN, libQ    int // lib-search: base rows, queries
	shardN, wireQ int // router-wire: rows per shard (3 shards), queries
	liveN, liveQ  int // serve-live-filtered: base rows, query pool
	holdout       int // serve-live-filtered: held-out rows the writer inserts
	setupReps     int // set-ups per run; setup_s is their median
	warm          time.Duration
}

var full = sizes{
	libN: 12000, libQ: 1000,
	shardN: 5000, wireQ: 1000,
	liveN: 12000, liveQ: 300, holdout: 61 * insertRate,
	setupReps: 4, warm: 300 * time.Millisecond,
}

var smoke = sizes{
	libN: 1500, libQ: 40,
	shardN: 500, wireQ: 40,
	liveN: 1500, liveQ: 30, holdout: 61 * insertRate,
	setupReps: 1, warm: 50 * time.Millisecond,
}

// insertRate is the writer's fixed /insert rate on serve-live-filtered, in
// inserts per second. It is a constant, never derived from measured speed.
const insertRate = 50

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per closed loop")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	smokeMode := fs.Bool("smoke", false, "tiny inputs and one set-up (the package test)")
	corrupt := fs.String("corrupt", "", "corrupt answers before checking: swap or filter (the package test)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the nsgserve and nsgrouter binaries")
	work := fs.String("work", ".bench_build", "scratch directory for temp files and traces")
	spinMode := fs.Bool("spin", false, "run as the idle poller (started by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spinMode {
		spin()
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be 1..60 and --trace 0 or 1")
		return 2
	}
	sp, floor, err := loadSpec(*specPath, *workload)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, corrupt: *corrupt, bin: *bin, work: *work,
		sz: full,
	}
	if *smokeMode {
		cfg.sz = smoke
	}

	e, err := newEnv(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer e.cleanup()
	if err := e.startIdlePoller(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// SIGINT/SIGTERM and the run deadline both end in cleanup, so no child
	// process or temp directory outlives the run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(stderr, "perfbench: %v: stopping\n", s)
		case <-time.After(deadline):
			fmt.Fprintf(stderr, "perfbench: run exceeded %v: stopping\n", deadline)
		case <-e.stop:
			return
		}
		e.cleanup()
		os.Exit(3)
	}()

	res, err := e.runAll()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
	}
	out, err := res.final(want, floor, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metric is one reported figure; samples is the number of timings behind
// a percentile or median (0 for counts and derived values).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// results gathers everything one run reports.
type results struct {
	tally
	metrics []metric
	notes   []string
}

func (r *results) add(name string, v float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, v, unit, samples})
}

func (r *results) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *results) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// final selects the metrics BENCHMARK.json names, checking each was
// measured with the declared unit, and applies the recall floor.
func (r *results) final(want []metricSpec, floor float64, traced bool) (resultLine, error) {
	out := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, w := range want {
		m, ok := r.lookup(w.Name)
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.unit != w.Unit {
			return out, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.unit, w.Unit)
		}
		out.Metrics[w.Name] = value{m.value, m.unit}
	}
	out.Correct = r.failed == 0 && r.attempted > 0
	if !traced {
		if rc, ok := r.lookup("recall_at_10"); ok && rc.value < floor {
			r.note("recall_at_10 %.4f is below the recall floor %.4f", rc.value, floor)
			out.Correct = false
		}
	}
	return out, nil
}

func (r *results) print(w io.Writer) {
	for _, m := range r.metrics {
		if m.samples > 0 {
			fmt.Fprintf(w, "%-32s %14.4f %-10s (n=%d)\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Fprintf(w, "%-32s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(w, "%-32s %14d\n%-32s %14d\n", "attempted", r.attempted, "failed", r.failed)
	if r.attempted > 0 {
		fmt.Fprintf(w, "%-32s %14.6f fraction\n", "failed_frac", float64(r.failed)/float64(r.attempted))
	}
	reasons := make([]string, 0, len(r.reasons))
	for k := range r.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(w, "failed check %-19s %14d\n", k, r.reasons[k])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
}
