package engine

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/sequitur"
)

// Window counting runs on packed integer keys. Terminals are ranked
// into a dense alphabet of n symbols (1-based, so rank 0 never occurs
// in a key), each rank takes b = bits.Len(n) bits, and a window of
// length l is the l·b-bit integer
//
//	K = Σ rank(w[i]) << ((l-1-i)·b)
//
// stored big-endian in ⌈l·b/64⌉ words: word 0 holds the most
// significant bits, the last word the last symbol. Sliding a window one
// position is a shift-and-mask of those words, and a window's count
// lives in an open-addressing table whose keys sit inline in one flat
// []uint64 slab at that stride — no per-key allocation, no pointers for
// the collector to scan.

// Alphabet ranks a fixed set of terminal values into dense 1-based
// ranks. Rank r's value is Values[r-1].
type Alphabet struct {
	// Values lists the ranked terminal values in rank order.
	Values []uint64
	// Bits is the width of one packed rank: bits.Len(len(Values)), at
	// least 1.
	Bits  uint
	ranks map[uint64]uint64
}

// NewAlphabet ranks distinct values in the order given: values[i] gets
// rank i+1.
func NewAlphabet(values []uint64) *Alphabet {
	al := &Alphabet{
		Values: values,
		Bits:   uint(max(1, bits.Len(uint(len(values))))),
		ranks:  make(map[uint64]uint64, len(values)),
	}
	for i, v := range values {
		al.ranks[v] = uint64(i + 1)
	}
	return al
}

// Rank returns a copy of a's grammar with every terminal replaced by its
// rank, sharing a's memoized per-rule data (the rule structure is
// unchanged). Terminals outside the alphabet are returned, ascending and
// distinct, in missing; the ranked analysis is then nil.
func (al *Alphabet) Rank(a *Analysis) (ranked *Analysis, missing []uint64) {
	n := 0
	for _, rhs := range a.Snap.Rules {
		n += len(rhs)
	}
	slab := make([]sequitur.Sym, n)
	rules := make([][]sequitur.Sym, len(a.Snap.Rules))
	var absent map[uint64]bool
	for r, rhs := range a.Snap.Rules {
		out := slab[:len(rhs):len(rhs)]
		slab = slab[len(rhs):]
		for j, s := range rhs {
			if !s.IsRule() {
				rank, ok := al.ranks[s.Value]
				if !ok {
					if absent == nil {
						absent = map[uint64]bool{}
					}
					absent[s.Value] = true
				}
				s.Value = rank
			}
			out[j] = s
		}
		rules[r] = out
	}
	if absent != nil {
		for v := range absent {
			missing = append(missing, v)
		}
		slices.Sort(missing)
		return nil, missing
	}
	return &Analysis{
		Snap:    &sequitur.Snapshot{Rules: rules},
		ExpLen:  a.ExpLen,
		Uses:    a.Uses,
		CumLens: a.CumLens,
	}, nil
}

// terminalAlphabet ranks the distinct terminal values of a's grammar in
// ascending order.
func terminalAlphabet(a *Analysis) *Alphabet {
	seen := map[uint64]bool{}
	var values []uint64
	for _, rhs := range a.Snap.Rules {
		for _, s := range rhs {
			if !s.IsRule() && !seen[s.Value] {
				seen[s.Value] = true
				values = append(values, s.Value)
			}
		}
	}
	slices.Sort(values)
	return NewAlphabet(values)
}

// Packing is the key layout of one window length over one rank width.
type Packing struct {
	// L is the window length and Bits the width of one rank.
	L    int
	Bits uint
	// Stride is the key's word count, ⌈L·Bits/64⌉.
	Stride int
	// top masks word 0 to the key's L·Bits - 64·(Stride-1) live bits.
	top uint64
	// sym masks one rank.
	sym uint64
}

// NewPacking returns the layout of length-l windows of b-bit ranks.
// l >= 1 and 1 <= b < 64.
func NewPacking(l int, b uint) Packing {
	nbits := uint(l) * b
	stride := int((nbits + 63) / 64)
	return Packing{
		L:      l,
		Bits:   b,
		Stride: stride,
		top:    lowMask(nbits - 64*uint(stride-1)),
		sym:    lowMask(b),
	}
}

// lowMask returns a mask of the low n bits, 1 <= n <= 64.
func lowMask(n uint) uint64 { return ^uint64(0) >> (64 - n) }

// Push slides key one position: the oldest rank drops out and r becomes
// the last symbol. Pushing L ranks into a zero key packs them.
func (p Packing) Push(key []uint64, r uint64) {
	b := p.Bits
	last := len(key) - 1
	for j := 0; j < last; j++ {
		key[j] = key[j]<<b | key[j+1]>>(64-b)
	}
	key[last] = key[last]<<b | r
	key[0] &= p.top
}

// Pack writes the packed key of window (len(window) == L) into key.
func (p Packing) Pack(key, window []uint64) {
	clear(key)
	for _, r := range window {
		p.Push(key, r)
	}
}

// bitsAt returns the 64 bits of key starting at bit pos, counted from
// the least significant end; bits past the key's top read as zero.
func bitsAt(key []uint64, pos uint) uint64 {
	wi := int(pos / 64)
	off := pos % 64
	last := len(key) - 1
	v := key[last-wi] >> off
	if off > 0 && wi < last {
		v |= key[last-wi-1] << (64 - off)
	}
	return v
}

// Unpack writes the window's ranks into dst[:L], oldest first, reading
// the key once from its least significant end.
func (p Packing) Unpack(key, dst []uint64) {
	b := p.Bits
	var acc uint64 // the low `have` bits are the next unread ones
	have := uint(0)
	wi := len(key) - 1
	for i := p.L - 1; i >= 0; i-- {
		if have >= b {
			dst[i] = acc & p.sym
			acc >>= b
			have -= b
			continue
		}
		w := key[wi]
		wi--
		dst[i] = (acc | w<<have) & p.sym
		acc = w >> (b - have)
		have = 64 - (b - have)
	}
}

// Sub writes into dst the key, in layout q (q.Bits == p.Bits, q.L <=
// p.L), of the length-q.L subwindow of key starting at position off.
func (p Packing) Sub(key []uint64, off int, q Packing, dst []uint64) {
	lo := uint(p.L-off-q.L) * p.Bits
	last := len(dst) - 1
	for j := 0; j <= last; j++ {
		dst[last-j] = bitsAt(key, lo+64*uint(j))
	}
	dst[0] &= q.top
}

// WindowTable counts packed windows of one layout: a power-of-two
// open-addressing table with linear probing, modeled on the SEQUITUR
// digram index. Each slot is Stride+1 consecutive words of one flat
// slab, the window's count followed by its key, so a probe touches one
// cache line; a zero count marks an empty slot (every stored window
// occurs at least once). Nothing is ever deleted, so no tombstones are
// needed.
type WindowTable struct {
	P      Packing
	slots  []uint64
	width  int // words per slot: Stride+1
	mask   uint64
	live   int
	growAt int
}

// minWindowCap is a new table's capacity; a power of two.
const minWindowCap = 64

// NewWindowTable returns an empty table for layout p.
func NewWindowTable(p Packing) *WindowTable {
	t := &WindowTable{P: p, width: p.Stride + 1}
	t.init(minWindowCap)
	return t
}

func (t *WindowTable) init(capacity int) {
	t.slots = make([]uint64, capacity*t.width)
	t.mask = uint64(capacity - 1)
	t.live = 0
	t.growAt = capacity - capacity/4
}

// Len is the number of distinct windows counted.
func (t *WindowTable) Len() int { return t.live }

// windowHash mixes a key's words through a murmur-style finalizer.
func windowHash(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		h = (h ^ w) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// find returns the slot (its count word's index) holding key, or the
// empty slot where key belongs.
func (t *WindowTable) find(key []uint64) int {
	w := t.width
	i := windowHash(key) & t.mask
	for {
		at := int(i) * w
		slot := t.slots[at : at+w]
		if slot[0] == 0 {
			return at
		}
		eq := true
		for j, k := range key {
			if slot[1+j] != k {
				eq = false
				break
			}
		}
		if eq {
			return at
		}
		i = (i + 1) & t.mask
	}
}

// Add adds n > 0 occurrences of key.
func (t *WindowTable) Add(key []uint64, n uint64) {
	at := t.find(key)
	if t.slots[at] == 0 {
		if t.live >= t.growAt {
			t.rehash(2 * (len(t.slots) / t.width))
			at = t.find(key)
		}
		copy(t.slots[at+1:at+t.width], key)
		t.live++
	}
	t.slots[at] += n
}

// Reserve grows the table, if needed, so that n more distinct windows
// fit without rehashing.
func (t *WindowTable) Reserve(n int) {
	need := t.live + n
	if need <= t.growAt {
		return
	}
	capacity := len(t.slots) / t.width
	for capacity-capacity/4 < need {
		capacity *= 2
	}
	t.rehash(capacity)
}

// Count returns key's count, 0 if it was never added.
func (t *WindowTable) Count(key []uint64) uint64 { return t.slots[t.find(key)] }

// Merge adds every window of o (same layout) into t.
func (t *WindowTable) Merge(o *WindowTable) {
	o.Each(t.Add)
}

// Each visits every counted window in slot order. The key slice aliases
// the table; visitors must copy it to retain it.
func (t *WindowTable) Each(visit func(key []uint64, n uint64)) {
	w := t.width
	for at := 0; at < len(t.slots); at += w {
		if n := t.slots[at]; n != 0 {
			visit(t.slots[at+1:at+w], n)
		}
	}
}

// rehash grows the table into a fresh slab.
func (t *WindowTable) rehash(capacity int) {
	old := t.slots
	t.init(capacity)
	w := t.width
	for at := 0; at < len(old); at += w {
		if old[at] == 0 {
			continue
		}
		to := t.find(old[at+1 : at+w])
		copy(t.slots[to:to+w], old[at:at+w])
		t.live++
	}
}

// WindowCounter counts the windows of every length lo..hi in one
// enumeration: for each rule of a ranked grammar (CountInto), or each
// chunk seam (CountCrossing), it collects the terminals the crossing
// windows touch once and, at each start position, adds every length
// that crosses a boundary there. A window that contains a window of
// skip is not counted.
type WindowCounter struct {
	lo, hi int            // the lengths counted, 1 <= lo <= hi
	tables []*WindowTable // tables[l-lo]: the length-l windows, nil until one arrives
	skip   *WindowTable   // non-empty or nil: windows of one length below lo

	packs []Packing // packs[l-lo]: the layout of length l
	key   []uint64  // the sliding length-hi window
	sub   []uint64  // a shorter window cut from key
	skey  []uint64  // the sliding skip-length window
	ring  []int     // starts of skip windows ahead, oldest first
	terms []uint64  // a rule's crossing region
}

// NewWindowCounter returns a counter of the lengths lo ..
// lo+len(tables)-1 over b-bit ranks into tables, whose nil entries it
// fills as their first windows arrive. skip may be nil.
func NewWindowCounter(tables []*WindowTable, lo int, b uint, skip *WindowTable) *WindowCounter {
	c := &WindowCounter{lo: lo, hi: lo + len(tables) - 1, tables: tables}
	if skip != nil && skip.Len() > 0 {
		c.skip = skip
		c.skey = make([]uint64, skip.P.Stride)
		c.ring = make([]int, c.hi+1)
	}
	c.packs = make([]Packing, len(tables))
	for i := range c.packs {
		c.packs[i] = NewPacking(lo+i, b)
	}
	wide := c.packs[len(c.packs)-1]
	c.key = make([]uint64, wide.Stride)
	c.sub = make([]uint64, wide.Stride)
	return c
}

// table returns the length-l table, creating it if needed.
func (c *WindowCounter) table(l int) *WindowTable {
	t := c.tables[l-c.lo]
	if t == nil {
		t = NewWindowTable(c.packs[l-c.lo])
		c.tables[l-c.lo] = t
	}
	return t
}

// CountPacked adds, for every distinct window of length t.P.L in the
// expansion of a ranked grammar (see Alphabet.Rank), its occurrence
// count to t: CountInto with one length and nothing skipped.
func (a *Analysis) CountPacked(t *WindowTable) {
	// Every window visited is at most one new key: size the table for
	// all of them up front instead of rehashing as it fills.
	if L := uint64(t.P.L); L > 1 {
		adds := 0
		for r := range a.Snap.Rules {
			if a.Uses[r] != 0 {
				a.crossingRuns(int32(r), L, L, func(lo, hi uint64) { adds += int(hi - lo) })
			}
		}
		t.Reserve(adds)
	}
	a.CountInto(NewWindowCounter([]*WindowTable{t}, t.P.L, t.P.Bits, nil))
}

// CountInto adds, for every distinct window of a length in c's range in
// the expansion of a ranked grammar (see Alphabet.Rank), its occurrence
// count to c. It enumerates, for each rule, the windows crossing its
// RHS boundaries, weighted by the rule's use count, which counts every
// window of the expansion exactly once (see CountWindows).
func (a *Analysis) CountInto(c *WindowCounter) {
	if len(a.Snap.Rules) == 0 {
		return
	}
	lo := c.lo
	if lo == 1 {
		// Single-event windows never cross boundaries; count terminals
		// directly.
		key := c.sub[:1]
		a.Terminals(func(v, uses uint64) {
			key[0] = v
			c.table(1).Add(key, uses)
		})
		lo = 2
	}
	if lo > c.hi {
		return
	}
	for r := range a.Snap.Rules {
		uses := a.Uses[r]
		if uses == 0 {
			continue
		}
		cum := a.CumLens[r]
		total := cum[len(cum)-1]
		a.crossingRuns(int32(r), uint64(lo), uint64(c.hi), func(runLo, runHi uint64) {
			// Materialize the terminals every crossing window of the run
			// touches once, for all lengths.
			end := min(total, runHi-1+uint64(c.hi))
			c.terms = a.Collect(int32(r), runLo, end-runLo, c.terms[:0])
			c.region(c.terms, int(runHi-runLo), cum[1:len(cum)-1], runLo, uses)
		})
	}
}

// CountCrossing adds to c, with weight 1, every window of a length in
// c's range that starts inside chunk i but extends past its end (see
// CrossingWindows), and returns how many occurrences it added.
// Boundaries must have been built with width >= hi-1.
func (c *WindowCounter) CountCrossing(bounds []Boundary) uint64 {
	var added uint64
	seamStreams(bounds, c.hi-1, func(stream []uint64, t int) {
		from := max(0, t-c.hi+1)
		seam := [1]uint64{uint64(t)}
		added += c.region(stream[from:], t-from, seam[:], uint64(from), 1)
	})
	return added
}

// region adds weight occurrences of each window that starts at one of
// terms' first n positions, crosses one of the ascending boundary
// positions bounds, and ends inside terms, at every length in c's
// range; terms[0] is at position base. At each of those starts some
// length in the range crosses a boundary. A start s adds the lengths
//
//	[max(lo, nb(s)-s+1), min(hi, len(terms)-s, he(s)-s-1)]
//
// where nb(s) is the first boundary past s and he(s) the end of the
// first skip window starting at or after s. It returns how many
// occurrences it added.
func (c *WindowCounter) region(terms []uint64, n int, bounds []uint64, base, weight uint64) uint64 {
	lo, hi, tables, packs := c.lo, c.hi, c.tables, c.packs
	end := len(terms)
	wide := packs[len(packs)-1]
	key, sub := c.key, c.sub
	clear(key)
	var m int // skip's length, 0 for none
	var sp Packing
	if c.skip != nil {
		sp = c.skip.P
		m = sp.L
		clear(c.skey)
	}
	ring, head, size := c.ring, 0, 0 // starts of skip windows, ascending
	j := sort.Search(len(bounds), func(j int) bool { return bounds[j] > base })
	var added uint64
	// Position i enters key, zero past the end; once key is full it
	// holds the length-hi window at start s.
	for i := 0; i < n+hi-1; i++ {
		v := uint64(0)
		if i < end {
			v = terms[i]
		}
		wide.Push(key, v)
		if m > 0 && i < end {
			sp.Push(c.skey, v)
			if q := i - m + 1; q >= 0 && c.skip.Count(c.skey) != 0 {
				ring[(head+size)%len(ring)] = q
				size++
			}
		}
		s := i - hi + 1
		if s < 0 {
			continue
		}
		for size > 0 && ring[head] < s {
			head = (head + 1) % len(ring)
			size--
		}
		pos := base + uint64(s)
		for j < len(bounds) && bounds[j] <= pos {
			j++
		}
		if j == len(bounds) {
			break // no later start crosses a boundary either
		}
		first := max(lo, int(bounds[j]-pos)+1)
		last := min(hi, end-s)
		if size > 0 {
			last = min(last, ring[head]+m-s-1)
		}
		for l := first; l <= last; l++ {
			k := key
			if l < hi {
				p := packs[l-lo]
				k = sub[:p.Stride]
				wide.Sub(key, 0, p, k)
			}
			t := tables[l-lo]
			if t == nil {
				t = c.table(l)
			}
			t.Add(k, weight)
			added += weight
		}
	}
	return added
}

// crossingRuns visits, as maximal runs [lo, hi) of start offsets, the
// starts of rule r's expansion where a window of some length in
// [minL, maxL] crosses at least one boundary between its RHS symbols.
func (a *Analysis) crossingRuns(r int32, minL, maxL uint64, visit func(lo, hi uint64)) {
	cum := a.CumLens[r]
	total := cum[len(cum)-1]
	if total < minL {
		return
	}
	maxStart := total - minL
	next := uint64(0)
	runLo, runHi := uint64(0), uint64(0)
	haveRun := false
	for b := 1; b < len(cum)-1; b++ {
		p := cum[b]
		lo := uint64(0)
		if p >= maxL {
			lo = p - maxL + 1
		}
		if lo < next {
			lo = next
		}
		hi := p // window must start strictly before the boundary
		if hi > maxStart+1 {
			hi = maxStart + 1
		}
		if lo >= hi {
			continue
		}
		if haveRun && lo <= runHi {
			runHi = hi
		} else {
			if haveRun {
				visit(runLo, runHi)
			}
			runLo, runHi, haveRun = lo, hi, true
		}
		next = hi
	}
	if haveRun {
		visit(runLo, runHi)
	}
}
