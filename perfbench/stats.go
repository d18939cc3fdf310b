package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one timed operation of a closed loop: when it started
// (relative to the loop's start), how long the timed part took, and how
// many queries it answered (a batch counts its queries, an insert none).
type sample struct {
	at, dur time.Duration
	n       int32
}

// closedLoop runs workers goroutines, each calling op back to back until d
// has elapsed, and returns every worker's samples. op returns the duration
// of its timed part and the queries it answered; its untimed part (output
// checks) still holds the worker's next request back, as a real client's
// processing of a reply would.
func closedLoop(workers int, d time.Duration, op func(worker, i int) (time.Duration, int)) [][]sample {
	out := make([][]sample, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := make([]sample, 0, 1<<16)
			for i := 0; ; i++ {
				at := time.Since(start)
				if at >= d {
					break
				}
				dur, n := op(w, i)
				s = append(s, sample{at, dur, int32(n)})
			}
			out[w] = s
		}()
	}
	wg.Wait()
	return out
}

func flatten(per [][]sample) []sample {
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// qpsWindows is the median, over windows consecutive equal slices of the
// loop, of each slice's completion rate: the queries completed after the
// slice's first completion, over the time from that completion to its
// last. The median keeps one stalled second on a shared host from moving
// the figure.
func qpsWindows(all []sample, d time.Duration, windows int) float64 {
	type win struct {
		first, last time.Duration
		firstN, n   float64
	}
	ws := make([]win, windows)
	width := d / time.Duration(windows)
	for _, s := range all {
		end := s.at + s.dur
		i := int(end / width)
		if i >= windows || s.n == 0 {
			continue
		}
		w := &ws[i]
		if w.n == 0 || end < w.first {
			w.first, w.firstN = end, float64(s.n)
		}
		if end > w.last {
			w.last = end
		}
		w.n += float64(s.n)
	}
	var rates []float64
	for _, w := range ws {
		if w.last > w.first {
			rates = append(rates, (w.n-w.firstN)/(w.last-w.first).Seconds())
		}
	}
	return median(rates)
}

// millis returns the durations of samples in milliseconds.
func millis(all []sample) []float64 {
	out := make([]float64, len(all))
	for i, s := range all {
		out[i] = float64(s.dur) / float64(time.Millisecond)
	}
	return out
}

// percentile is the nearest-rank percentile p (0..100) of xs; xs is sorted
// in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latency adds a median and a p99 of the given samples, in ms, each with
// its sample count.
func (r *results) latency(prefix string, all []sample) {
	ms := millis(all)
	r.add(prefix+"_p50_ms", percentile(ms, 50), "ms", len(ms))
	r.add(prefix+"_p99_ms", percentile(ms, 99), "ms", len(ms))
}

// tally counts operations and failed output checks. Each loop worker owns
// one; merge folds them together after the loop.
type tally struct {
	attempted, failed int64
	reasons           map[string]int64
	recallSum         float64
	recallN           int64
}

func (t *tally) fail(reason string) {
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int64{}
	}
	t.reasons[reason]++
}

func (t *tally) recall(r float64) {
	t.recallSum += r
	t.recallN++
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.recallSum += o.recallSum
	t.recallN += o.recallN
	for k, v := range o.reasons {
		if t.reasons == nil {
			t.reasons = map[string]int64{}
		}
		t.reasons[k] += v
	}
}

func (t *tally) meanRecall() float64 {
	if t.recallN == 0 {
		return 0
	}
	return t.recallSum / float64(t.recallN)
}
