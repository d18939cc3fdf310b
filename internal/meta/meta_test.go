package meta

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// testStore builds a deterministic store with one column of each type.
func testStore(t *testing.T, rows int, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New(rows)
	ints := make([]int64, rows)
	cats := make([]string, rows)
	tags := make([][]string, rows)
	allTags := []string{"new", "sale", "eco", "import", "bulk"}
	for i := 0; i < rows; i++ {
		ints[i] = int64(rng.Intn(1000))
		cats[i] = fmt.Sprintf("cat%d", rng.Intn(8))
		set := make([]string, 0, 2)
		for _, tag := range allTags {
			if rng.Intn(3) == 0 {
				set = append(set, tag)
			}
		}
		tags[i] = set
	}
	if err := s.AddInt64("price", ints); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEnum("category", cats); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTags("tags", tags); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompileMatchesParity gates the bitmap compiler against the per-row
// reference evaluator on every predicate form: over the random store, and
// over an edge store (int64 extremes and negatives, rows missing their enum
// value, rows with 0, 1 and many tags) at row counts on and around 64-row
// word boundaries.
func TestCompileMatchesParity(t *testing.T) {
	const rows = 700
	s := testStore(t, rows, 7)
	checkCompileParity(t, s, []Predicate{
		Eq("price", int64(250)),
		Eq("category", "cat3"),
		Range("price", 100, 399),
		Range("price", 990, 5000),
		In("price", int64(1), int64(2), int64(3)),
		In("category", "cat0", "cat7", "nosuch"),
		HasTag("tags", "sale"),
		HasTag("tags", "nosuch"),
		And(Range("price", 0, 500), Eq("category", "cat1")),
		Or(Eq("category", "cat2"), HasTag("tags", "eco")),
		And(Or(Eq("category", "cat0"), Eq("category", "cat1")), Range("price", 200, 800), HasTag("tags", "new")),
		And(), // matches everything
		Or(),  // matches nothing
		{},    // zero predicate matches nothing
	})
	edge := []Predicate{
		Range("v", 5, -5), // lo > hi: empty
		Range("v", 7, 7),  // lo == hi
		Range("v", 0, 0),
		Range("v", -100, 100),
		Range("v", math.MinInt64, math.MaxInt64),
		Range("v", math.MinInt64, -1),
		Range("v", 0, math.MaxInt64),
		Range("v", math.MinInt64, math.MinInt64),
		Range("v", math.MaxInt64, math.MaxInt64),
		Range("v", math.MaxInt64, math.MinInt64),
		Eq("v", int64(-1)),
		Eq("v", int64(math.MinInt64)),
		Eq("v", int64(math.MaxInt64)),
		In("v", int64(math.MaxInt64), int64(-1), int64(math.MinInt64), int64(0), int64(5), int64(5)),
		In("v", int64(-7)),
		In("v"),
		Eq("cat", "b"),
		Eq("cat", "nosuch"), // absent from the dictionary
		Eq("cat", ""),
		In("cat", "a", "nosuch", "c"),
		In("cat", "nosuch"),
		In("cat"),
		HasTag("tags", "t0"),
		HasTag("tags", "t4"),
		HasTag("tags", "nosuch"),
		And(Range("v", -500, 500), HasTag("tags", "t1")),
		Or(Eq("cat", "a"), In("v", int64(math.MinInt64), int64(3))),
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 701} {
		checkCompileParity(t, edgeStore(t, n, int64(n)), edge)
	}
}

// edgeStore builds rows rows over columns v (int64: extremes, negatives
// and small values), cat (enum; every 7th row has no value) and tags (0,
// 1, 3 or 5 tags per row, from t0..t4).
func edgeStore(t testing.TB, rows int, seed int64) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New(0)
	if err := s.AddInt64("v", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEnum("cat", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTags("tags", nil); err != nil {
		t.Fatal(err)
	}
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 7, math.MaxInt64 - 1, math.MaxInt64}
	for i := 0; i < rows; i++ {
		v := rng.Int63n(2001) - 1000
		if rng.Intn(3) == 0 {
			v = extremes[rng.Intn(len(extremes))]
		}
		row := map[string]any{"v": v}
		if i%7 != 0 {
			row["cat"] = []string{"a", "b", "c"}[rng.Intn(3)]
		}
		var tags []string
		for j := 0; j < []int{0, 1, 3, 5}[i%4]; j++ {
			tags = append(tags, fmt.Sprintf("t%d", rng.Intn(5)))
		}
		row["tags"] = tags
		if err := s.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// checkCompileParity compiles every predicate into a bitmap one word longer
// than needed (pre-filled with ones, so a stale word would show) and checks
// every bit against Matches, the padding against zero and the count
// against the bitmap's popcount.
func checkCompileParity(t testing.TB, s *Store, preds []Predicate) {
	t.Helper()
	rows := s.Rows()
	bits := make([]uint64, BitsLen(rows)+1)
	for pi, p := range preds {
		for i := range bits {
			bits[i] = ^uint64(0)
		}
		count, err := s.Compile(p, bits)
		if err != nil {
			t.Fatalf("rows %d pred %d: %v", rows, pi, err)
		}
		got := 0
		for row := 0; row < len(bits)*64; row++ {
			want := s.Matches(p, row)
			have := bits[row>>6]&(1<<uint(row&63)) != 0
			if want != have {
				t.Fatalf("rows %d pred %d row %d: compile=%v matches=%v", rows, pi, row, have, want)
			}
			if have {
				got++
			}
		}
		if got != count {
			t.Fatalf("rows %d pred %d: Compile count %d, bitmap has %d", rows, pi, count, got)
		}
	}
}

// FuzzCompile drives the branch-free compiler with fuzzer-chosen rows and
// operands: every bit of the bitmap must equal Matches on its row, and the
// count must equal the popcount. Each 3-byte group of data is one row: an
// int64 value (bytes 254 and 255 map to MinInt64 and MaxInt64, others to
// a signed byte), an enum value (c0..c3, or missing) and a tag mask over
// t0..t3.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 254, 2, 15, 255, 4, 3}, int64(0), int64(1), uint8(0))
	f.Add([]byte{128, 3, 8, 127, 4, 0}, int64(math.MinInt64), int64(math.MaxInt64), uint8(1))
	f.Add(make([]byte, 3*130), int64(-5), int64(-5), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64, pick uint8) {
		if len(data) > 3*320 {
			t.Skip("five 64-row words are enough; longer inputs only slow minimization")
		}
		s := New(0)
		if err := s.AddInt64("v", nil); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEnum("cat", nil); err != nil {
			t.Fatal(err)
		}
		if err := s.AddTags("tags", nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i+3 <= len(data); i += 3 {
			v := int64(int8(data[i]))
			switch data[i] {
			case 254:
				v = math.MinInt64
			case 255:
				v = math.MaxInt64
			}
			row := map[string]any{"v": v}
			if c := data[i+1] % 5; c < 4 {
				row["cat"] = fmt.Sprintf("c%d", c)
			}
			var tags []string
			for j := 0; j < 4; j++ {
				if data[i+2]>>j&1 != 0 {
					tags = append(tags, fmt.Sprintf("t%d", j))
				}
			}
			row["tags"] = tags
			if err := s.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		tag := fmt.Sprintf("t%d", pick%5)
		cat := fmt.Sprintf("c%d", pick%5)
		preds := []Predicate{
			Range("v", lo, hi),
			Eq("v", lo),
			In("v", lo, hi, lo^hi),
			Eq("cat", cat),
			In("cat", cat, fmt.Sprintf("c%d", (pick/5)%5)),
			HasTag("tags", tag),
			And(Range("v", lo, hi), HasTag("tags", tag)),
			Or(Eq("cat", cat), Range("v", lo, hi)),
		}
		checkCompileParity(t, s, preds)
	})
}

func TestCompileErrors(t *testing.T) {
	s := testStore(t, 64, 1)
	bits := make([]uint64, BitsLen(64))
	cases := []Predicate{
		Eq("nosuch", int64(1)),
		Eq("price", "notanint"),
		Eq("category", int64(3)),
		Eq("tags", "x"),
		Range("category", 0, 1),
		HasTag("price", "x"),
		Eq("price", 3.5),                                   // non-integral float
		In("price", int64(1), "mixed"),                     // mixed operand types
		And(Eq("price", int64(1)), Eq("nosuch", int64(2))), // nested error propagates
	}
	for i, p := range cases {
		if _, err := s.Compile(p, bits); err == nil {
			t.Errorf("case %d: expected compile error", i)
		}
	}
	if _, err := s.Compile(Eq("price", int64(1)), bits[:0]); err == nil {
		t.Error("short bitmap: expected error")
	}
}

func TestAppendRow(t *testing.T) {
	s := testStore(t, 10, 3)
	if err := s.AppendRow(map[string]any{"price": int64(42), "category": "catNEW", "tags": []string{"zzz", "sale"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRow(nil); err != nil { // all-missing row
		t.Fatal(err)
	}
	if s.Rows() != 12 {
		t.Fatalf("rows = %d, want 12", s.Rows())
	}
	if !s.Matches(Eq("price", int64(42)), 10) || !s.Matches(Eq("category", "catNEW"), 10) || !s.Matches(HasTag("tags", "zzz"), 10) {
		t.Error("appended row does not match its own values")
	}
	// Missing enum/tags never match; missing int64 is the zero value.
	if s.Matches(Eq("category", "catNEW"), 11) || s.Matches(HasTag("tags", "sale"), 11) {
		t.Error("all-missing row matched an enum/tag predicate")
	}
	if !s.Matches(Eq("price", int64(0)), 11) {
		t.Error("missing int64 should hold the zero value")
	}
	// Unknown column and bad types reject without appending.
	if err := s.AppendRow(map[string]any{"nosuch": 1}); err == nil {
		t.Error("unknown column accepted")
	}
	if err := s.AppendRow(map[string]any{"price": "str"}); err == nil {
		t.Error("mistyped int64 accepted")
	}
	if s.Rows() != 12 {
		t.Fatalf("failed appends changed row count to %d", s.Rows())
	}
}

// TestAppendRowErrorDoesNotPoison: a failed AppendRow must not leak dict
// codes. The regression scenario: one well-typed NEW enum value alongside a
// mistyped value in another column — if the enum interned before the type
// check failed, a later successful append of the same value would get a
// stale code past the published dictionary, silently failing every
// predicate and producing an undecodable encoding.
func TestAppendRowErrorDoesNotPoison(t *testing.T) {
	s := New(0)
	if err := s.AddEnum("category", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTags("tags", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInt64("price", nil); err != nil {
		t.Fatal(err)
	}
	// New enum value + new tag, but the int64 column gets a string: the
	// whole append must reject with no residue.
	err := s.AppendRow(map[string]any{"category": "fresh", "tags": []string{"rare"}, "price": "oops"})
	if err == nil {
		t.Fatal("mistyped append accepted")
	}
	if s.Rows() != 0 {
		t.Fatalf("failed append grew rows to %d", s.Rows())
	}
	// The same values appended correctly must land with live codes.
	if err := s.AppendRow(map[string]any{"category": "fresh", "tags": []string{"rare"}, "price": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if !s.Matches(Eq("category", "fresh"), 0) || !s.Matches(HasTag("tags", "rare"), 0) {
		t.Error("re-appended values do not match their own predicates")
	}
	bits := make([]uint64, BitsLen(s.Rows()))
	if count, err := s.Compile(Eq("category", "fresh"), bits); err != nil || count != 1 {
		t.Errorf("Compile(Eq fresh) = %d, %v; want 1, nil", count, err)
	}
	// The encoded stream must decode: a leaked code past the dictionary
	// would be rejected here.
	if _, err := Decode(s.AppendEncode(nil), s.Rows()); err != nil {
		t.Errorf("encode after failed append does not round-trip: %v", err)
	}
}

// TestCompileAlloc: the self-sizing compile agrees with Compile into a
// caller-sized bitmap.
func TestCompileAlloc(t *testing.T) {
	const rows = 130 // deliberately not a multiple of 64
	s := testStore(t, rows, 11)
	p := Or(Eq("category", "cat1"), HasTag("tags", "sale"))
	bits, count, err := s.CompileAlloc(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != BitsLen(rows) {
		t.Fatalf("bitmap has %d words, want %d", len(bits), BitsLen(rows))
	}
	ref := make([]uint64, BitsLen(rows))
	refCount, err := s.Compile(p, ref)
	if err != nil {
		t.Fatal(err)
	}
	if count != refCount {
		t.Fatalf("CompileAlloc count %d != Compile count %d", count, refCount)
	}
	for i := range ref {
		if bits[i] != ref[i] {
			t.Fatalf("word %d: CompileAlloc %x != Compile %x", i, bits[i], ref[i])
		}
	}
	if _, _, err := s.CompileAlloc(Eq("nosuch", int64(1))); err == nil {
		t.Error("CompileAlloc accepted an unknown column")
	}
}

// TestControlCharOperand: operand values are never confused with the
// internal bad-operand marker, however adversarial the string.
func TestControlCharOperand(t *testing.T) {
	const weird = "\x00bad-operand" // the former sentinel value
	s := New(0)
	if err := s.AddEnum("category", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRow(map[string]any{"category": weird}); err != nil {
		t.Fatal(err)
	}
	bits := make([]uint64, BitsLen(s.Rows()))
	for name, p := range map[string]Predicate{
		"In": In("category", weird),
		"Eq": Eq("category", weird),
	} {
		count, err := s.Compile(p, bits)
		if err != nil {
			t.Errorf("%s(%q): %v", name, weird, err)
		}
		if count != 1 {
			t.Errorf("%s(%q) matched %d rows, want 1", name, weird, count)
		}
	}
	// Genuinely bad operands still reject.
	if _, err := s.Compile(In("category", 3.5), bits); err == nil {
		t.Error("float operand accepted")
	}
}

// TestAppendConcurrentWithCompile hammers AppendRow against Compile and
// Matches; correctness here is "no race, no torn view" (run under -race).
func TestAppendConcurrentWithCompile(t *testing.T) {
	s := testStore(t, 100, 5)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = s.AppendRow(map[string]any{"price": int64(i), "category": "catX", "tags": []string{"new"}})
		}
		close(stop)
	}()
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			p := And(Range("price", 0, 400), Or(Eq("category", "catX"), HasTag("tags", "new")))
			for {
				rows := s.Rows()
				bits := make([]uint64, BitsLen(rows+64))
				count, err := s.Compile(p, bits)
				if err != nil {
					t.Error(err)
					return
				}
				if count > s.Rows() {
					t.Errorf("count %d exceeds rows %d", count, s.Rows())
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if s.Rows() != 600 {
		t.Fatalf("rows = %d, want 600", s.Rows())
	}
}

func TestCodecRoundtrip(t *testing.T) {
	s := testStore(t, 333, 9)
	if err := s.AppendRow(map[string]any{"price": int64(-7), "category": "", "tags": []string{}}); err != nil {
		t.Fatal(err)
	}
	blob := s.AppendEncode(nil)
	if len(blob) != s.EncodedLen() {
		t.Fatalf("EncodedLen %d, actual %d", s.EncodedLen(), len(blob))
	}
	d, err := Decode(blob, s.Rows())
	if err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{
		Range("price", 100, 500),
		Eq("category", "cat3"),
		HasTag("tags", "eco"),
		Eq("price", int64(-7)),
	}
	for pi, p := range preds {
		for row := 0; row < s.Rows(); row++ {
			if s.Matches(p, row) != d.Matches(p, row) {
				t.Fatalf("pred %d row %d: decoded store disagrees", pi, row)
			}
		}
	}
	// A decoded store accepts appends (the live path after Load).
	if err := d.AppendRow(map[string]any{"category": "cat3"}); err != nil {
		t.Fatal(err)
	}
	if !d.Matches(Eq("category", "cat3"), s.Rows()) {
		t.Error("append after decode did not intern into the decoded dictionary")
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	s := testStore(t, 50, 2)
	blob := s.AppendEncode(nil)
	if _, err := Decode(blob, 49); err == nil {
		t.Error("row-count mismatch accepted")
	}
	if _, err := Decode(blob[:len(blob)-1], -1); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := Decode(append(blob, 0), -1); err == nil {
		t.Error("trailing bytes accepted")
	}
	for _, off := range []int{0, 4, 8, 12, 20, len(blob) / 2, len(blob) - 2} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x41
		if _, err := Decode(bad, -1); err == nil {
			t.Errorf("flip at %d accepted", off)
		}
	}
	if _, err := Decode(nil, -1); err == nil {
		t.Error("empty input accepted")
	}
}

func TestBitsHelpers(t *testing.T) {
	if BitsLen(0) != 0 || BitsLen(1) != 1 || BitsLen(64) != 1 || BitsLen(65) != 2 {
		t.Fatal("BitsLen wrong")
	}
	bits := []uint64{^uint64(0), ^uint64(0)}
	if got := CountBits(bits, 70); got != 70 {
		t.Fatalf("CountBits(70) = %d", got)
	}
	if got := CountBits(bits, 128); got != 128 {
		t.Fatalf("CountBits(128) = %d", got)
	}
	if got := CountBits(bits, 0); got != 0 {
		t.Fatalf("CountBits(0) = %d", got)
	}
}
