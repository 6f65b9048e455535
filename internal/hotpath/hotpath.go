// Package hotpath finds minimal hot subpaths in a whole program path, the
// flagship analysis of Larus's PLDI 1999 paper: sequences of at least L
// consecutive acyclic paths whose aggregate cost (occurrences times
// instructions per occurrence) meets a threshold fraction of the whole
// execution, where no shorter contained subpath is itself hot.
//
// The analysis runs directly on the SEQUITUR grammar, without
// decompressing the trace, as a fold over the engine package's single
// traversal: per-chunk window counting on the grammar DAG, plus boundary
// windows materialized across chunk seams. A monolithic WPP is the
// one-chunk special case of the same fold, so Find and FindChunked share
// one implementation and produce identical subpaths for identical event
// streams. FindByScan is the paper's strawman alternative (decompress and
// slide a window); it produces identical results and serves as both the
// E6 baseline and a correctness oracle in tests.
package hotpath

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/wpp"
)

// Metrics is the analysis-side observability hook set. Fields may be nil
// (obsv metrics are nil-safe); a nil *Metrics disables instrumentation.
type Metrics struct {
	// ChunksScanned counts chunk grammars analyzed by the searches, once
	// per counting pass (a monolithic search analyzes its one grammar in
	// phase A and, when MaxLen > MinLen, again in phase B).
	ChunksScanned *obsv.Counter
	// BoundaryWindows counts window occurrences counted from chunk
	// boundary regions (the work chunking adds over the monolithic
	// scan); windows the search skips as non-minimal are not counted.
	BoundaryWindows *obsv.Counter
	// SubpathsEmitted counts minimal hot subpaths reported.
	SubpathsEmitted *obsv.Counter
}

// NewMetrics registers the standard analysis metric names on r. A nil
// registry yields nil (no-op) metrics.
func NewMetrics(r *obsv.Registry) *Metrics {
	return &Metrics{
		ChunksScanned:   r.Counter("hotpath_chunks_scanned_total"),
		BoundaryWindows: r.Counter("hotpath_boundary_windows_total"),
		SubpathsEmitted: r.Counter("hotpath_subpaths_total"),
	}
}

// noopMetrics backs Options with a nil Metrics pointer.
var noopMetrics = &Metrics{}

// Options selects what counts as a hot subpath.
type Options struct {
	// MinLen and MaxLen bound the subpath length in acyclic paths
	// (events). MinLen >= 1; MaxLen >= MinLen.
	MinLen, MaxLen int
	// Threshold is the fraction of the execution's total instruction
	// count a subpath's aggregate cost must reach to be hot, e.g. 0.01
	// for 1%.
	Threshold float64
	// Metrics installs observability hooks on the search; nil disables
	// them. Results are identical either way.
	Metrics *Metrics
}

// metrics returns the hook set, never nil.
func (o Options) metrics() *Metrics {
	if o.Metrics == nil {
		return noopMetrics
	}
	return o.Metrics
}

func (o Options) validate() error {
	if o.MinLen < 1 {
		return fmt.Errorf("hotpath: MinLen %d < 1", o.MinLen)
	}
	if o.MaxLen < o.MinLen {
		return fmt.Errorf("hotpath: MaxLen %d < MinLen %d", o.MaxLen, o.MinLen)
	}
	if !(o.Threshold > 0 && o.Threshold <= 1) { // also rejects NaN
		return fmt.Errorf("hotpath: Threshold %v outside (0,1]", o.Threshold)
	}
	return nil
}

// Subpath is one discovered hot subpath.
type Subpath struct {
	// Events is the sequence of acyclic path events.
	Events []trace.Event
	// Count is the number of (possibly overlapping) occurrences in the
	// trace.
	Count uint64
	// Cost is Count times the instruction cost of one occurrence.
	Cost uint64
	// Fraction is Cost over the execution's total instruction count.
	Fraction float64
}

// Find locates all minimal hot subpaths by analyzing the grammar in
// compressed form: the one-chunk case of the shared fold.
func Find(w *wpp.WPP, opts Options) ([]Subpath, error) {
	return find(engine.SliceSource{w.Grammar}, 1, opts, w.CostEvents(), w.PathCost, w.Instructions)
}

// FindChunked locates the same minimal hot subpaths as Find would on a
// monolithic WPP of the identical event stream, analyzing a chunked WPP
// with per-chunk passes on `workers` goroutines (<=0 means GOMAXPROCS).
// A window of the full trace either lies entirely inside one chunk —
// counted on that chunk's grammar, in compressed form — or crosses a
// chunk boundary and is counted once, attributed to the chunk containing
// its start position. Merging is by summation, so worker scheduling
// cannot change any count.
func FindChunked(c *wpp.ChunkedWPP, opts Options, workers int) ([]Subpath, error) {
	return find(engine.SliceSource(c.Chunks), workers, opts, c.CostEvents(), c.PathCost, c.Instructions)
}

// FindView locates the same minimal hot subpaths as Find/FindChunked
// would on the eagerly decoded artifact, analyzing a lazy view
// chunk-parallel: each chunk grammar is materialized inside the fold's
// per-chunk pass and discarded after counting, so peak memory tracks
// one chunk per worker instead of the whole artifact. A monolithic view
// is the one-chunk case. Materialization failures (corrupt chunks)
// surface as *wpp.ViewError.
func FindView(v *wpp.ArtifactView, opts Options, workers int) ([]Subpath, error) {
	return find(v, workers, opts, v.CostEvents(), v.PathCost, v.TotalInstructions())
}

// The search counts in two exact phases. Phase A counts the MinLen
// windows, seams included, and keeps the hot ones, H. Phase B counts
// lengths MinLen+1 .. MaxLen but skips every window that contains a
// window of H: such a window is not minimal, and neither is any longer
// window containing it, since that contains the same hot window. So the
// skipped counts are never needed, and the emitted subpaths, counts and
// costs are those of a full count. Each phase folds over the chunks
// once; a view materializes each chunk once per phase rather than
// holding every chunk between them.

// windowState accumulates per-chunk window counts (one packed table per
// window length) and boundary regions across the merge.
type windowState struct {
	tables []*engine.WindowTable // tables[l-lo]: windows fully inside scanned chunks; nil if none
	bounds []engine.Boundary     // one per chunk, in chunk order, as ranks
	// missing lists terminals absent from the fold's alphabet, ascending;
	// when set, tables and bounds are incomplete and the fold is rerun
	// over an extended alphabet.
	missing []uint64
}

// windowFold is one counting phase expressed over the engine: the
// per-chunk pass ranks the grammar's terminals once and counts the
// lengths lo..hi in one enumeration per rule, skipping windows that
// contain a window of skip; when workers outnumber chunks, contiguous
// groups of lengths are counted on par goroutines. With width > 0 it
// also materializes the chunk's boundary regions. The merge sums
// tables, one length per goroutine on up to workers goroutines, and
// concatenates boundaries in chunk order.
type windowFold struct {
	lo, hi       int
	skip         *engine.WindowTable
	width        int
	al           *engine.Alphabet
	par, workers int
	met          *Metrics
}

func (f windowFold) Chunk(_ int, a *engine.Analysis) *windowState {
	f.met.ChunksScanned.Inc()
	ranked, missing := f.al.Rank(a)
	if missing != nil {
		return &windowState{missing: missing}
	}
	n := f.hi - f.lo + 1
	st := &windowState{tables: make([]*engine.WindowTable, n)}
	groups := min(f.par, n)
	engine.ForEach(groups, groups, func(g int) {
		from, to := g*n/groups, (g+1)*n/groups
		ranked.CountInto(engine.NewWindowCounter(st.tables[from:to], f.lo+from, f.al.Bits, f.skip))
	})
	if f.width > 0 {
		st.bounds = []engine.Boundary{ranked.Boundary(f.width)}
	}
	return st
}

func (f windowFold) Merge(acc, next *windowState) *windowState {
	if acc.missing != nil || next.missing != nil {
		acc.missing = mergeSorted(acc.missing, next.missing)
		return acc
	}
	longestFirst(len(next.tables), f.workers, func(li int) {
		a, t := acc.tables[li], next.tables[li]
		switch {
		case t == nil:
		case a == nil:
			acc.tables[li] = t
		default:
			if t.Len() > a.Len() {
				a, t = t, a
			}
			a.Merge(t)
			acc.tables[li] = a
		}
	})
	acc.bounds = append(acc.bounds, next.bounds...)
	return acc
}

// longestFirst calls fn(li) for every window-length index li in
// [0, n) on up to workers goroutines, longest length first: tables grow
// with their length, so the largest jobs start earliest.
func longestFirst(n, workers int, fn func(li int)) {
	engine.ForEach(n, workers, func(i int) { fn(n - 1 - i) })
}

// mergeSorted unions two ascending distinct lists.
func mergeSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// windowCounts is the search's packed window counts over one chunk
// source: tables[l-MinLen] holds the length-l windows, nil where none
// was counted, and is nil for an empty source.
type windowCounts struct {
	src     engine.Source
	workers int
	opts    Options
	al      *engine.Alphabet
	bounds  []engine.Boundary
	tables  []*engine.WindowTable
}

// errChunkChanged reports a chunk whose terminals differ between the
// two counting phases.
var errChunkChanged = errors.New("hotpath: chunk terminals changed between counting passes")

// countMinLen runs phase A: it counts the MinLen windows of src, seams
// included, and keeps the boundary regions for phase B. The alphabet
// is the cost table's events; a terminal missing from it (possible only
// in a hand-built or inconsistent artifact) extends the alphabet and
// reruns the fold, so such a terminal is still counted exactly.
func countMinLen(src engine.Source, workers int, opts Options, costEvents []trace.Event) (*windowCounts, error) {
	values := make([]uint64, len(costEvents))
	for i, e := range costEvents {
		values[i] = uint64(e)
	}
	wc := &windowCounts{src: src, workers: workers, opts: opts, al: engine.NewAlphabet(values)}
	st, err := wc.fold(opts.MinLen, opts.MinLen, nil, opts.MaxLen-1)
	if err == nil && st != nil && st.missing != nil {
		wc.al = engine.NewAlphabet(append(values, st.missing...))
		st, err = wc.fold(opts.MinLen, opts.MinLen, nil, opts.MaxLen-1)
	}
	if err != nil || st == nil {
		return wc, err
	}
	if st.missing != nil {
		return nil, errChunkChanged
	}
	wc.bounds = st.bounds
	wc.tables = make([]*engine.WindowTable, opts.MaxLen-opts.MinLen+1)
	wc.tables[0] = st.tables[0]
	wc.countCrossing(0, 1, nil)
	return wc, nil
}

// countLonger runs phase B: it counts the windows of lengths MinLen+1 ..
// MaxLen, seams included, skipping every window that contains a window
// of skip (nil skips nothing).
func (wc *windowCounts) countLonger(skip *engine.WindowTable) error {
	if wc.tables == nil || len(wc.tables) == 1 {
		return nil
	}
	lo := wc.opts.MinLen + 1
	st, err := wc.fold(lo, wc.opts.MaxLen, skip, 0)
	if err != nil {
		return err
	}
	if st == nil || st.missing != nil {
		return errChunkChanged
	}
	copy(wc.tables[1:], st.tables)
	wc.countCrossing(1, len(wc.tables), skip)
	return nil
}

// fold runs one counting phase over the source; it returns a nil state
// for an empty source.
func (wc *windowCounts) fold(lo, hi int, skip *engine.WindowTable, width int) (*windowState, error) {
	f := windowFold{lo: lo, hi: hi, skip: skip, width: width, al: wc.al, workers: wc.workers, met: wc.opts.metrics()}
	if n := wc.src.NumChunks(); n > 0 {
		f.par = max(1, engine.Workers(wc.workers)/n)
	}
	return engine.RunSource(wc.src, wc.workers, f)
}

// countCrossing adds the seam-crossing windows of tables[from:to]
// (weight 1 each, attributed to the chunk holding their start — a
// single chunk contributes none), skipping those that contain a window
// of skip.
func (wc *windowCounts) countCrossing(from, to int, skip *engine.WindowTable) {
	c := engine.NewWindowCounter(wc.tables[from:to], wc.opts.MinLen+from, wc.al.Bits, skip)
	wc.opts.metrics().BoundaryWindows.Add(c.CountCrossing(wc.bounds))
}

// find is the single hot-subpath implementation behind Find,
// FindChunked, and FindView: count the MinLen windows, keep the hot
// ones, count the longer windows that contain none of them, then
// harvest the minimal hot subpaths.
func find(src engine.Source, workers int, opts Options, costEvents []trace.Event, costOf func(trace.Event) uint64, total uint64) ([]Subpath, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	wc, err := countMinLen(src, workers, opts, costEvents)
	if err != nil {
		return nil, err
	}
	var result []Subpath
	if wc.tables != nil && total != 0 {
		costs := rankCosts(wc.al, costOf)
		h := hotWindows(wc.tables[0], costs, total, opts.Threshold)
		if err := wc.countLonger(h); err != nil {
			return nil, err
		}
		result = harvestPacked(wc.tables, h, opts, wc.al, costs, total, workers)
	}
	sortSubpaths(result)
	opts.metrics().SubpathsEmitted.Add(uint64(len(result)))
	return result, nil
}

// rankCosts returns the per-rank cost array of al: costs[r] is one
// occurrence of rank r.
func rankCosts(al *engine.Alphabet, costOf func(trace.Event) uint64) []uint64 {
	costs := make([]uint64, len(al.Values)+1)
	for i, v := range al.Values {
		costs[i+1] = costOf(trace.Event(v))
	}
	return costs
}

// windowCost returns a window's aggregate cost and fraction of total,
// leaving its ranks in ranks.
func windowCost(p engine.Packing, key []uint64, count uint64, costs, ranks []uint64, total uint64) (uint64, float64) {
	p.Unpack(key, ranks)
	var unit uint64
	for _, r := range ranks {
		unit += costs[r]
	}
	c := unit * count
	return c, float64(c) / float64(total)
}

// hotWindows returns the windows of t (nil for none) whose cost fraction
// meets threshold, with their counts.
func hotWindows(t *engine.WindowTable, costs []uint64, total uint64, threshold float64) *engine.WindowTable {
	if t == nil {
		return nil
	}
	h := engine.NewWindowTable(t.P)
	ranks := make([]uint64, t.P.L)
	t.Each(func(key []uint64, count uint64) {
		if _, frac := windowCost(t.P, key, count, costs, ranks, total); frac < threshold {
			return
		}
		h.Add(key, count)
	})
	return h
}

// harvestPacked turns packed window counts (tables[i] holds length
// MinLen+i, nil for none) and the hot MinLen windows h (hotWindows of
// tables[0]) into minimal hot subpaths, on up to workers goroutines, one
// length at a time each. A window's unit cost is summed from its ranks
// through the per-rank cost array and the threshold test runs on that,
// so cold windows are never decoded. The first pass keeps each longer
// length's hot windows; the second emits a hot window unless a
// proper subwindow of length >= MinLen is hot, testing packed sub-keys
// against the shorter lengths' hot tables, which by then are complete
// and read only. Events are materialized only for the subpaths emitted.
func harvestPacked(tables []*engine.WindowTable, h *engine.WindowTable, opts Options, al *engine.Alphabet, costs []uint64, total uint64, workers int) []Subpath {
	hot := make([]*engine.WindowTable, len(tables))
	hot[0] = h
	longestFirst(len(tables)-1, workers, func(li int) {
		hot[li+1] = hotWindows(tables[li+1], costs, total, opts.Threshold)
	})
	found := make([][]Subpath, len(tables))
	longestFirst(len(tables), workers, func(li int) {
		if hot[li] == nil {
			return
		}
		p := hot[li].P
		ranks := make([]uint64, p.L)
		hot[li].Each(func(key []uint64, count uint64) {
			if containsHot(p, key, hot[:li]) {
				return
			}
			c, frac := windowCost(p, key, count, costs, ranks, total)
			events := make([]trace.Event, p.L)
			for i, r := range ranks {
				events[i] = trace.Event(al.Values[r-1])
			}
			found[li] = append(found[li], Subpath{Events: events, Count: count, Cost: c, Fraction: frac})
		})
	})
	var result []Subpath
	for _, f := range found {
		result = append(result, f...)
	}
	return result
}

// containsHot reports whether any proper contiguous subwindow of key
// is in one of the shorter lengths' hot tables.
func containsHot(p engine.Packing, key []uint64, shorter []*engine.WindowTable) bool {
	var sub []uint64
	for _, hot := range shorter {
		if hot == nil || hot.Len() == 0 {
			continue
		}
		q := hot.P
		if cap(sub) < q.Stride {
			sub = make([]uint64, q.Stride)
		}
		sub = sub[:q.Stride]
		for off := 0; off+q.L <= p.L; off++ {
			p.Sub(key, off, q, sub)
			if hot.Count(sub) != 0 {
				return true
			}
		}
	}
	return false
}

// FindByScan locates the same minimal hot subpaths by decompressing the
// trace and sliding a window over it.
func FindByScan(w *wpp.WPP, opts Options) ([]Subpath, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var events []trace.Event
	w.Walk(func(e trace.Event) bool { events = append(events, e); return true })
	counts := make(map[string]uint64)
	hot := map[string]bool{}
	var result []Subpath
	key := make([]byte, 0, opts.MaxLen*8)
	for l := opts.MinLen; l <= opts.MaxLen; l++ {
		clear(counts)
		for i := 0; i+l <= len(events); i++ {
			key = key[:0]
			for _, e := range events[i : i+l] {
				key = binary.BigEndian.AppendUint64(key, uint64(e))
			}
			counts[string(key)]++
		}
		result = harvest(counts, l, opts, hot, result, w.PathCost, w.Instructions)
	}
	sortSubpaths(result)
	return result, nil
}

// harvest converts this length's window counts into subpaths, marks hot
// windows, and appends the minimal ones to result. costOf and total
// supply the cost model (a WPP's or a ChunkedWPP's).
func harvest(counts map[string]uint64, l int, opts Options, hot map[string]bool, result []Subpath, costOf func(trace.Event) uint64, total uint64) []Subpath {
	if total == 0 {
		return result
	}
	for key, count := range counts {
		events := decodeKey(key)
		var unit uint64
		for _, e := range events {
			unit += costOf(e)
		}
		cost := unit * count
		frac := float64(cost) / float64(total)
		if frac < opts.Threshold {
			continue
		}
		hot[key] = true
		if containsHotSub(key, l, opts.MinLen, hot) {
			continue
		}
		result = append(result, Subpath{Events: events, Count: count, Cost: cost, Fraction: frac})
	}
	return result
}

// containsHotSub reports whether any proper contiguous subwindow of key
// (of length >= minLen) is already hot.
func containsHotSub(key string, l, minLen int, hot map[string]bool) bool {
	for sub := minLen; sub < l; sub++ {
		for off := 0; off+sub <= l; off++ {
			if hot[key[off*8:(off+sub)*8]] {
				return true
			}
		}
	}
	return false
}

func decodeKey(key string) []trace.Event {
	syms := engine.DecodeKey(key)
	events := make([]trace.Event, len(syms))
	for i, v := range syms {
		events[i] = trace.Event(v)
	}
	return events
}

func sortSubpaths(s []Subpath) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Cost != s[j].Cost {
			return s[i].Cost > s[j].Cost
		}
		if len(s[i].Events) != len(s[j].Events) {
			return len(s[i].Events) < len(s[j].Events)
		}
		for k := range s[i].Events {
			if s[i].Events[k] != s[j].Events[k] {
				return s[i].Events[k] < s[j].Events[k]
			}
		}
		return false
	})
}

// Coverage sums the cost fractions of the given subpaths. Overlapping
// occurrences can push the sum past 1; callers typically report
// min(sum, 1).
func Coverage(subpaths []Subpath) float64 {
	var sum float64
	for _, s := range subpaths {
		sum += s.Fraction
	}
	return sum
}
