package main

import "math"

// k is the neighbor count every workload asks for; recall is recall@k.
const k = 10

// checkAnswer validates one k-NN answer against the benchmark's own copy
// of the data and returns the name of the first failed check, or "" when
// the answer is sound:
//
//	count   exactly k ids and k distances
//	id      every id names a live vector (vec returns nil otherwise)
//	dup     ids are distinct
//	filter  every id passes the request's predicate (pass nil: unfiltered)
//	dist    each distance equals the exact float32 squared L2 to that vector
//	sorted  distances are non-decreasing
func checkAnswer(q []float32, ids []int32, dists []float32, vec func(int32) []float32, pass func(int32) bool) string {
	if len(ids) != k || len(dists) != k {
		return "count"
	}
	for i, id := range ids {
		if vec(id) == nil {
			return "id"
		}
		for _, prev := range ids[:i] {
			if prev == id {
				return "dup"
			}
		}
	}
	if pass != nil {
		for _, id := range ids {
			if !pass(id) {
				return "filter"
			}
		}
	}
	for i, id := range ids {
		exact := l2(q, vec(id))
		if math.Abs(float64(dists[i]-exact)) > 1e-5*math.Max(1, float64(exact)) {
			return "dist"
		}
		if i > 0 && dists[i] < dists[i-1] {
			return "sorted"
		}
	}
	return ""
}

// l2 is the squared Euclidean distance, summed in order: the benchmark's
// oracle, independent of the program's kernels.
func l2(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// recallAt is |ids ∩ gt[:k]| / k.
func recallAt(ids, gt []int32) float64 {
	hit := 0
	for _, id := range ids {
		for _, g := range gt[:k] {
			if id == g {
				hit++
				break
			}
		}
	}
	return float64(hit) / k
}

// corrupt damages every tenth answer when the run was asked to (the smoke
// test's proof that the checks catch bad output): "swap" swaps the first
// and last distances, "filter" replaces the last id with failID, a row
// that fails the request's predicate (swap when the request has none).
func corrupt(mode string, i int, ids []int32, dists []float32, failID int32) {
	if mode == "" || i%10 != 0 || len(ids) < 2 {
		return
	}
	if mode == "filter" && failID >= 0 {
		ids[len(ids)-1] = failID
		return
	}
	dists[0], dists[len(dists)-1] = dists[len(dists)-1], dists[0]
}
