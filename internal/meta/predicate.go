package meta

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// predOp enumerates predicate node kinds.
type predOp uint8

const (
	opNone predOp = iota
	opEq
	opRange
	opIn
	opHasTag
	opAnd
	opOr
)

// Predicate is one node of a filter expression over a Store's columns.
// Build predicates with Eq, Range, In, HasTag, And and Or; compile them
// against a store with Store.Compile. The zero Predicate matches no rows.
type Predicate struct {
	op  predOp
	col string
	str string // Eq (string), HasTag
	num int64  // Eq (integer)
	// isStr records whether Eq/In carried string or integer operands; a
	// mismatch against the column type is a compile-time error, not a
	// silent empty result.
	isStr bool
	// badOp marks an Eq/In built from an unsupported operand type (str
	// holds the offending type's name) so the error surfaces at compile
	// time. A flag rather than a sentinel value: any string, including any
	// control-character one, is a legitimate operand.
	badOp  bool
	lo, hi int64 // Range, inclusive
	strs   []string
	nums   []int64
	kids   []Predicate
}

// Eq matches rows whose column equals value. value must be a string (for
// enum columns) or an integer kind (for int64 columns); anything else
// fails at compile time.
func Eq(col string, value any) Predicate {
	if s, ok := value.(string); ok {
		return Predicate{op: opEq, col: col, str: s, isStr: true}
	}
	if n, ok := asInt64(value); ok {
		return Predicate{op: opEq, col: col, num: n}
	}
	return Predicate{op: opEq, col: col, str: fmt.Sprintf("%T", value), badOp: true}
}

// Range matches rows whose int64 column value lies in [lo, hi], inclusive.
func Range(col string, lo, hi int64) Predicate {
	return Predicate{op: opRange, col: col, lo: lo, hi: hi}
}

// In matches rows whose column equals any of values (strings for enum
// columns, integer kinds for int64 columns; mixing is an error).
func In(col string, values ...any) Predicate {
	p := Predicate{op: opIn, col: col}
	for _, v := range values {
		if s, ok := v.(string); ok {
			p.strs = append(p.strs, s)
			continue
		}
		if n, ok := asInt64(v); ok {
			p.nums = append(p.nums, n)
			continue
		}
		return Predicate{op: opIn, col: col, str: fmt.Sprintf("%T", v), badOp: true}
	}
	if len(p.strs) > 0 && len(p.nums) > 0 {
		return Predicate{op: opIn, col: col, str: "mixed string/integer operands", badOp: true}
	}
	p.isStr = len(p.strs) > 0
	return p
}

// HasTag matches rows whose tag-set column contains tag.
func HasTag(col, tag string) Predicate {
	return Predicate{op: opHasTag, col: col, str: tag}
}

// And matches rows passing every child predicate. And() matches all rows.
func And(ps ...Predicate) Predicate { return Predicate{op: opAnd, kids: ps} }

// Or matches rows passing any child predicate. Or() matches no rows.
func Or(ps ...Predicate) Predicate { return Predicate{op: opOr, kids: ps} }

// Zero reports whether p is the zero Predicate (no expression).
func (p Predicate) Zero() bool { return p.op == opNone }

func (p Predicate) bad() bool { return p.badOp }

// Compile evaluates p over every row of s and writes the result into
// bits: bit i set means row i passes. bits must be at least
// BitsLen(s.Rows()) long; it is fully overwritten (and zero-padded past
// the row count). The set-bit count over [0, Rows) is returned. Compile
// allocates only for nested AND/OR scratch and may run concurrently with
// AppendRow; it evaluates one consistent published view.
func (s *Store) Compile(p Predicate, bits []uint64) (int, error) {
	return compileBits(s.v.Load(), p, bits)
}

// CompileAlloc is Compile into a freshly allocated bitmap sized from the
// same published view it evaluates. Callers sizing a bitmap from a separate
// Rows() load can race a concurrent AppendRow across a 64-row word boundary
// and draw a spurious "bitmap too short" error; CompileAlloc cannot.
func (s *Store) CompileAlloc(p Predicate) ([]uint64, int, error) {
	v := s.v.Load()
	bits := make([]uint64, BitsLen(v.rows))
	count, err := compileBits(v, p, bits)
	if err != nil {
		return nil, 0, err
	}
	return bits, count, nil
}

func compileBits(v *view, p Predicate, bits []uint64) (int, error) {
	words := BitsLen(v.rows)
	if len(bits) < words {
		return 0, fmt.Errorf("meta: bitmap too short: %d words, need %d", len(bits), words)
	}
	bits = bits[:len(bits):len(bits)]
	for i := range bits {
		bits[i] = 0
	}
	if err := compileInto(v, p, bits[:words]); err != nil {
		return 0, err
	}
	// Mask the tail so the count (and any downstream popcount) ignores
	// bits past the row count.
	if tail := v.rows % 64; tail != 0 && words > 0 {
		bits[words-1] &= 1<<uint(tail) - 1
	}
	return CountBits(bits[:words], v.rows), nil
}

// compileInto evaluates p into dst (len = word count over v.rows).
func compileInto(v *view, p Predicate, dst []uint64) error {
	switch p.op {
	case opNone:
		return nil // zero predicate: no rows
	case opAnd, opOr:
		if len(p.kids) == 0 {
			if p.op == opAnd {
				setAll(dst, v.rows)
			}
			return nil
		}
		if err := compileInto(v, p.kids[0], dst); err != nil {
			return err
		}
		if len(p.kids) == 1 {
			return nil
		}
		tmp := make([]uint64, len(dst))
		for _, kid := range p.kids[1:] {
			for i := range tmp {
				tmp[i] = 0
			}
			if err := compileInto(v, kid, tmp); err != nil {
				return err
			}
			if p.op == opAnd {
				for i := range dst {
					dst[i] &= tmp[i]
				}
			} else {
				for i := range dst {
					dst[i] |= tmp[i]
				}
			}
		}
		return nil
	}
	if p.bad() {
		return fmt.Errorf("meta: column %q: unsupported operand (%s)", p.col, p.str)
	}
	c := v.col(p.col)
	if c == nil {
		return fmt.Errorf("meta: unknown column %q", p.col)
	}
	switch p.op {
	case opEq:
		switch c.typ {
		case TypeInt64:
			if p.isStr {
				return fmt.Errorf("meta: column %q is int64, Eq got a string", p.col)
			}
			rangeWords(dst, c.ints[:v.rows], p.num, 0)
		case TypeEnum:
			if !p.isStr {
				return fmt.Errorf("meta: column %q is enum, Eq got an integer", p.col)
			}
			code := c.code(p.str)
			if code == missingCode {
				return nil // value absent from the dictionary: empty result
			}
			eqCodeWords(dst, c.codes[:v.rows], code)
		default:
			return fmt.Errorf("meta: Eq on %s column %q (use HasTag)", c.typ, p.col)
		}
	case opRange:
		if c.typ != TypeInt64 {
			return fmt.Errorf("meta: Range on %s column %q", c.typ, p.col)
		}
		if p.lo > p.hi {
			return nil // empty range
		}
		rangeWords(dst, c.ints[:v.rows], p.lo, uint64(p.hi-p.lo))
	case opIn:
		switch c.typ {
		case TypeInt64:
			if p.isStr {
				return fmt.Errorf("meta: column %q is int64, In got strings", p.col)
			}
			if len(p.nums) == 0 {
				return nil
			}
			set := slices.Clone(p.nums)
			slices.Sort(set)
			inWords(dst, c.ints[:v.rows], slices.Compact(set))
		case TypeEnum:
			if !p.isStr && len(p.nums) > 0 {
				return fmt.Errorf("meta: column %q is enum, In got integers", p.col)
			}
			// want holds bit code+1 for every wanted dictionary code; bit 0
			// (missingCode+1) stays clear, so rows without a value fail.
			want := make([]uint64, BitsLen(len(c.dict)+1))
			for _, s := range p.strs {
				if code := c.code(s); code != missingCode {
					want[(code+1)>>6] |= 1 << uint((code+1)&63)
				}
			}
			lookupWords(dst, c.codes[:v.rows], want)
		default:
			return fmt.Errorf("meta: In on %s column %q (use HasTag)", c.typ, p.col)
		}
	case opHasTag:
		if c.typ != TypeTags {
			return fmt.Errorf("meta: HasTag on %s column %q", c.typ, p.col)
		}
		code := c.code(p.str)
		if code == missingCode {
			return nil
		}
		tagWords(dst, c.offs[:v.rows+1], c.tags, code)
	default:
		return fmt.Errorf("meta: invalid predicate op %d", p.op)
	}
	return nil
}

// The leaf kernels below build each 64-row word of the bitmap in a
// register and store it once. Their per-row tests are branch-free: a
// predicate over random metadata passes rows in no pattern a branch
// predictor could learn, so a data-dependent branch per row mispredicts
// about half the time at 50% selectivity. Shifts are masked with &63 so
// the compiler emits a bare shift.

// rangeWords sets bit i when lo <= vals[i] <= lo+span (span = hi-lo, as
// uint64; Eq is span 0). vals[i]-lo wraps, so the unsigned difference is at
// most span exactly for in-range values, and bits.Sub64's borrow is the
// comparison: the loop gathers the out-of-range bits and the store inverts
// them.
func rangeWords(dst []uint64, vals []int64, lo int64, span uint64) {
	for w := range dst {
		chunk := vals[w<<6 : min(w<<6+64, len(vals))]
		var out uint64
		for j, val := range chunk {
			_, borrow := bits.Sub64(span, uint64(val-lo), 0)
			out |= borrow << (uint(j) & 63)
		}
		dst[w] = ^out & lowBits(len(chunk))
	}
}

// lowBits returns a word with the low n bits set, 1 <= n <= 64 (a word
// covers at least one row).
func lowBits(n int) uint64 {
	return ^uint64(0) >> (uint(64-n) & 63)
}

// neBit is 1 when a != b: the 32-bit difference widened to 64 bits plus
// 2^32-1 carries into bit 32 exactly when it is non-zero.
func neBit(a, b int32) uint64 {
	return (uint64(uint32(a^b)) + 1<<32 - 1) >> 32
}

// eqCodeWords sets bit i when codes[i] == code.
func eqCodeWords(dst []uint64, codes []int32, code int32) {
	for w := range dst {
		chunk := codes[w<<6 : min(w<<6+64, len(codes))]
		var ne uint64
		for j, rc := range chunk {
			ne |= neBit(rc, code) << (uint(j) & 63)
		}
		dst[w] = ^ne & lowBits(len(chunk))
	}
}

// lookupWords sets bit i when bit codes[i]+1 of want is set (want covers
// every dictionary code plus the missing code).
func lookupWords(dst []uint64, codes []int32, want []uint64) {
	for w := range dst {
		var word uint64
		for j, rc := range codes[w<<6 : min(w<<6+64, len(codes))] {
			i := uint32(rc + 1)
			word |= want[i>>6] >> (i & 63) & 1 << (uint(j) & 63)
		}
		dst[w] = word
	}
}

// inWords sets bit i when vals[i] is in set (sorted, distinct, non-empty).
// Each row runs a fixed-length binary search for the last element <= the
// value, comparing signed values through bits.Sub64 with the sign bit
// flipped, then tests that element for equality.
func inWords(dst []uint64, vals []int64, set []int64) {
	const sign = 1 << 63
	for w := range dst {
		var word uint64
		for j, val := range vals[w<<6 : min(w<<6+64, len(vals))] {
			base := 0
			for n := len(set); n > 1; n -= n / 2 {
				half := n / 2
				_, less := bits.Sub64(uint64(val)^sign, uint64(set[base+half])^sign, 0)
				base += int(less^1) * half
			}
			d := uint64(val ^ set[base])
			word |= ((d|-d)>>63 ^ 1) << (uint(j) & 63)
		}
		dst[w] = word
	}
}

// tagWords sets bit i when row i's tag list tags[offs[i]:offs[i+1]] holds
// code. Tag lists are short, so one pass over the tags that ANDs each
// row's inequality bits beats a per-row binary search; the cursor p walks
// the concatenated lists once.
func tagWords(dst []uint64, offs, tags []int32, code int32) {
	p := int(offs[0])
	for w := range dst {
		ends := offs[w<<6+1 : min(w<<6+65, len(offs))]
		var out uint64
		for j, end := range ends {
			miss := uint64(1)
			for ; p < int(end); p++ {
				miss &= neBit(tags[p], code)
			}
			out |= miss << (uint(j) & 63)
		}
		dst[w] = ^out & lowBits(len(ends))
	}
}

func setAll(dst []uint64, rows int) {
	full := rows / 64
	for i := 0; i < full; i++ {
		dst[i] = ^uint64(0)
	}
	if tail := rows % 64; tail != 0 {
		dst[full] = 1<<uint(tail) - 1
	}
}

// Matches evaluates p against a single row — the reference semantics the
// bitmap compiler must agree with (the parity tests compare the two). Rows
// outside [0, Rows) match nothing; errors (unknown column, type mismatch)
// report false.
func (s *Store) Matches(p Predicate, row int) bool {
	v := s.v.Load()
	if row < 0 || row >= v.rows {
		return false
	}
	ok, err := matchRow(v, p, row)
	return err == nil && ok
}

func matchRow(v *view, p Predicate, row int) (bool, error) {
	switch p.op {
	case opNone:
		return false, nil
	case opAnd:
		for _, kid := range p.kids {
			ok, err := matchRow(v, kid, row)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case opOr:
		for _, kid := range p.kids {
			ok, err := matchRow(v, kid, row)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	if p.bad() {
		return false, fmt.Errorf("meta: bad operand")
	}
	c := v.col(p.col)
	if c == nil {
		return false, fmt.Errorf("meta: unknown column %q", p.col)
	}
	switch p.op {
	case opEq:
		switch c.typ {
		case TypeInt64:
			return !p.isStr && c.ints[row] == p.num, typeCheck(!p.isStr, c, p.col)
		case TypeEnum:
			return p.isStr && c.codes[row] != missingCode && c.codes[row] == c.code(p.str), typeCheck(p.isStr, c, p.col)
		}
	case opRange:
		if c.typ == TypeInt64 {
			return c.ints[row] >= p.lo && c.ints[row] <= p.hi, nil
		}
	case opIn:
		switch c.typ {
		case TypeInt64:
			for _, n := range p.nums {
				if c.ints[row] == n {
					return true, nil
				}
			}
			return false, nil
		case TypeEnum:
			rc := c.codes[row]
			if rc == missingCode {
				return false, nil
			}
			for _, s := range p.strs {
				if c.code(s) == rc {
					return true, nil
				}
			}
			return false, nil
		}
	case opHasTag:
		if c.typ == TypeTags {
			code := c.code(p.str)
			if code == missingCode {
				return false, nil
			}
			row := c.tags[c.offs[row]:c.offs[row+1]]
			j := sort.Search(len(row), func(k int) bool { return row[k] >= code })
			return j < len(row) && row[j] == code, nil
		}
	}
	return false, fmt.Errorf("meta: predicate op %d does not apply to %s column %q", p.op, c.typ, p.col)
}

func typeCheck(ok bool, c *column, col string) error {
	if ok {
		return nil
	}
	return fmt.Errorf("meta: operand type mismatch on %s column %q", c.typ, col)
}
