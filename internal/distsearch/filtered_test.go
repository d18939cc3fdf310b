package distsearch

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/meta"
)

// compileFixture is the serving benchmark's filter shape without the
// graphs: rows rows dealt at random to shards shards, and the metadata the
// benchmark attaches (price uniform in 1..1000, one of ten categories, one
// of four tags plus "rare" on 1% of rows).
func compileFixture(t testing.TB, rows, shards int) *Sharded {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	s := &Sharded{shards: make([]*core.NSG, shards), localID: make([][]int32, shards)}
	for _, gid := range rng.Perm(rows) {
		sh := gid % shards
		s.localID[sh] = append(s.localID[sh], int32(gid))
	}
	price, cat, tags := make([]int64, rows), make([]string, rows), make([][]string, rows)
	for i := 0; i < rows; i++ {
		price[i] = 1 + rng.Int63n(1000)
		cat[i] = "c" + strconv.Itoa(rng.Intn(10))
		tags[i] = []string{"t" + strconv.Itoa(rng.Intn(4))}
	}
	for _, i := range rng.Perm(rows)[:rows/100] {
		tags[i] = append(tags[i], "rare")
	}
	s.Meta = meta.New(rows)
	if err := s.Meta.AddInt64("price", price); err != nil {
		t.Fatal(err)
	}
	if err := s.Meta.AddEnum("category", cat); err != nil {
		t.Fatal(err)
	}
	if err := s.Meta.AddTags("tags", tags); err != nil {
		t.Fatal(err)
	}
	return s
}

var benchPredicates = []struct {
	name string
	pred meta.Predicate
}{
	{"range50", meta.Range("price", 1, 500)},
	{"enum10", meta.Eq("category", "c3")},
	{"tag01", meta.HasTag("tags", "rare")},
}

// TestNewFilterCountsMatchRecount: the per-shard counts (popcounts against
// the cached owner masks) equal a plain recount through the bitmap,
// including for a bitmap too short to cover every shard row (those rows
// fail closed), and stay right when an id map grows.
func TestNewFilterCountsMatchRecount(t *testing.T) {
	s := compileFixture(t, 1000, 3)
	for _, tc := range benchPredicates {
		sf, err := s.CompileFilter(tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, bits := range [][]uint64{sf.Bits, sf.Bits[:len(sf.Bits)/2], nil} {
			nf := s.NewFilter(bits, 0)
			for sh, ids := range s.localID {
				want := 0
				for _, gid := range ids {
					if w := int(gid >> 6); w < len(bits) && bits[w]&(1<<uint(gid&63)) != 0 {
						want++
					}
				}
				if got := nf.per[sh].Count; got != want {
					t.Fatalf("%s, %d words, shard %d: count %d, recount %d", tc.name, len(bits), sh, got, want)
				}
			}
		}
		total := 0
		for sh := range s.localID {
			total += sf.per[sh].Count
		}
		if total != sf.Count {
			t.Fatalf("%s: per-shard counts sum to %d, filter count %d", tc.name, total, sf.Count)
		}
	}

	// The cached owner masks follow a grown id map, as after a routed
	// insert: an all-pass bitmap counts every shard row, the new one too.
	all := make([]uint64, meta.BitsLen(1001))
	for i := range all {
		all[i] = ^uint64(0)
	}
	s.localID[0] = append(s.localID[0], 1000)
	nf := s.NewFilter(all, 1001)
	for sh, ids := range s.localID {
		if nf.per[sh].Count != len(ids) {
			t.Fatalf("after growth, shard %d: count %d, want %d", sh, nf.per[sh].Count, len(ids))
		}
	}
}

// TestCompileFilterConcurrent: concurrent compiles share the lazily built
// owner masks and agree on every per-shard count.
func TestCompileFilterConcurrent(t *testing.T) {
	s := compileFixture(t, 1000, 3)
	want, err := s.CompileFilter(benchPredicates[0].pred)
	if err != nil {
		t.Fatal(err)
	}
	s.owners.Store(nil) // make the goroutines race to build the masks
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sf, err := s.CompileFilter(benchPredicates[0].pred)
				if err != nil {
					t.Error(err)
					return
				}
				for sh := range sf.per {
					if sf.per[sh].Count != want.per[sh].Count {
						t.Errorf("shard %d: count %d, want %d", sh, sf.per[sh].Count, want.per[sh].Count)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkCompileFilter times one predicate compile plus the per-shard
// counts on the serving benchmark's 12k-row, 2-shard shape.
func BenchmarkCompileFilter(b *testing.B) {
	s := compileFixture(b, 12000, 2)
	for _, tc := range benchPredicates {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.CompileFilter(tc.pred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
