package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

// TestMain lets the test binary double as the idle poller, which the
// benchmark starts by re-executing itself with -spin.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-spin" {
			spin()
		}
	}
	os.Exit(m.Run())
}

// servers compiles nsgserve and nsgrouter into a temp directory.
func servers(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+"/", "repro/cmd/nsgserve", "repro/cmd/nsgrouter").CombinedOutput()
	if err != nil {
		t.Fatalf("build servers: %v\n%s", err, out)
	}
	return dir
}

// smokeRun runs one tiny-size benchmark run in process and returns its
// result line, its whole standard output and its exit code.
func smokeRun(t *testing.T, bin string, args ...string) (resultLine, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	base := []string{"-smoke", "-seconds", "1", "-spec", specPath, "-bin", bin, "-work", t.TempDir()}
	code := run(append(base, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	return res, stdout.String(), code
}

// checkMetrics asserts that every named metric was reported with its unit,
// both in the result line and in the readable lines above it.
func checkMetrics(t *testing.T, res resultLine, out string, want []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
		if !strings.Contains(out, m.Name+" ") || !strings.Contains(out, " "+m.Unit) {
			t.Errorf("metric %s with unit %s not printed", m.Name, m.Unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	bin := servers(t)
	sp, _, err := loadSpec(specPath, "lib-search")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range sp.Workloads {
		name := wl.Name
		t.Run(name, func(t *testing.T) {
			if _, _, err := loadSpec(specPath, name); err != nil {
				t.Fatal(err)
			}
			res, out, code := smokeRun(t, bin, "-workload", name, "-seed", "3")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			checkMetrics(t, res, out, sp.EndToEnd)
			for _, m := range sp.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if !strings.Contains(out, "search_p50_ms") || !strings.Contains(out, "(n=") {
				t.Errorf("timings printed without sample counts:\n%s", out)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	bin := servers(t)
	sp, _, err := loadSpec(specPath, "serve-live-filtered")
	if err != nil {
		t.Fatal(err)
	}
	res, out, code := smokeRun(t, bin, "-workload", "serve-live-filtered", "-seed", "4", "-trace", "1")
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
	checkMetrics(t, res, out, sp.PerLayer)
	for _, want := range []string{"waterfall lib-search", "waterfall router-wire", "waterfall serve-live-filtered", "untraced search_p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("traced output lacks %q", want)
		}
	}
}

// TestCorruptedAnswersFail proves the output checks bite: answers damaged
// on purpose must be counted as failed and fail the run.
func TestCorruptedAnswersFail(t *testing.T) {
	bin := servers(t)
	for _, tc := range []struct{ workload, mode, check string }{
		{"lib-search", "swap", "dist"},
		{"serve-live-filtered", "filter", "filter"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			res, out, code := smokeRun(t, bin, "-workload", tc.workload, "-seed", "5", "-corrupt", tc.mode)
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted run passed: exit %d, result %+v", code, res)
			}
			if !strings.Contains(out, "failed check "+tc.check) {
				t.Errorf("no %q check failures reported:\n%s", tc.check, out)
			}
		})
	}
}

func TestLayerTableMatchesSpec(t *testing.T) {
	sp, _, err := loadSpec(specPath, "lib-search")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layers.go %d", len(sp.PerLayer), len(layerMetrics))
	}
	for i, m := range sp.PerLayer {
		if m.Name != layerMetrics[i].name {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s, layers.go %s", i, m.Name, layerMetrics[i].name)
		}
	}
}
