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
	// ChunksScanned counts chunk grammars analyzed by the searches (a
	// monolithic search scans exactly one).
	ChunksScanned *obsv.Counter
	// BoundaryWindows counts window occurrences materialized from chunk
	// boundary regions (the work chunking adds over the monolithic scan).
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
	if o.Threshold <= 0 || o.Threshold > 1 {
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

// windowState accumulates per-chunk window counts (one packed table per
// window length) and boundary regions across the merge.
type windowState struct {
	tables []*engine.WindowTable // tables[l-MinLen]: windows fully inside scanned chunks
	bounds []engine.Boundary     // one per chunk, in chunk order, as ranks
	// missing lists terminals absent from the fold's alphabet, ascending;
	// when set, tables and bounds are incomplete and the fold is rerun
	// over an extended alphabet.
	missing []uint64
}

// windowFold is the hot-subpath search expressed over the engine: the
// per-chunk pass ranks the grammar's terminals once, counts every
// window length into packed tables — on par goroutines, one length at
// a time each, when workers outnumber chunks — and materializes the
// chunk's boundary regions; the merge sums tables, one length per
// goroutine on up to workers goroutines, and concatenates boundaries in
// chunk order.
type windowFold struct {
	opts         Options
	met          *Metrics
	al           *engine.Alphabet
	par, workers int
}

func (f windowFold) Chunk(_ int, a *engine.Analysis) *windowState {
	f.met.ChunksScanned.Inc()
	ranked, missing := f.al.Rank(a)
	if missing != nil {
		return &windowState{missing: missing}
	}
	st := &windowState{tables: make([]*engine.WindowTable, f.opts.MaxLen-f.opts.MinLen+1)}
	longestFirst(len(st.tables), f.par, func(li int) {
		t := engine.NewWindowTable(engine.NewPacking(f.opts.MinLen+li, f.al.Bits))
		ranked.CountPacked(t)
		st.tables[li] = t
	})
	st.bounds = []engine.Boundary{ranked.Boundary(f.opts.MaxLen - 1)}
	return st
}

func (f windowFold) Merge(acc, next *windowState) *windowState {
	if acc.missing != nil || next.missing != nil {
		acc.missing = mergeSorted(acc.missing, next.missing)
		return acc
	}
	longestFirst(len(next.tables), f.workers, func(li int) {
		t := next.tables[li]
		if t.Len() > acc.tables[li].Len() {
			acc.tables[li], t = t, acc.tables[li]
		}
		acc.tables[li].Merge(t)
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

// countWindows runs the window fold over the chunk source and adds the
// boundary-crossing windows (weight 1 each, attributed to the chunk
// holding their start — a single chunk contributes none). The alphabet
// is the cost table's events; a terminal missing from it (possible only
// in a hand-built or inconsistent artifact) extends the alphabet and
// reruns the fold, so such a terminal is still counted exactly. It
// returns nil tables for an empty source.
func countWindows(src engine.Source, workers int, opts Options, costEvents []trace.Event) (*windowState, *engine.Alphabet, error) {
	met := opts.metrics()
	values := make([]uint64, len(costEvents))
	for i, e := range costEvents {
		values[i] = uint64(e)
	}
	fold := windowFold{opts: opts, met: met, al: engine.NewAlphabet(values), workers: workers}
	if n := src.NumChunks(); n > 0 {
		fold.par = max(1, engine.Workers(workers)/n)
	}
	st, err := engine.RunSource(src, workers, fold)
	if err == nil && st != nil && st.missing != nil {
		fold.al = engine.NewAlphabet(append(values, st.missing...))
		st, err = engine.RunSource(src, workers, fold)
	}
	if err != nil || st == nil {
		return nil, fold.al, err
	}
	for l := opts.MinLen; l <= opts.MaxLen; l++ {
		t := st.tables[l-opts.MinLen]
		key := make([]uint64, t.P.Stride)
		engine.CrossingWindows(st.bounds, l, func(window []uint64) {
			t.P.Pack(key, window)
			t.Add(key, 1)
			met.BoundaryWindows.Inc()
		})
	}
	return st, fold.al, nil
}

// find is the single hot-subpath implementation behind Find,
// FindChunked, and FindView: count every window length into packed
// tables, then harvest the minimal hot subpaths.
func find(src engine.Source, workers int, opts Options, costEvents []trace.Event, costOf func(trace.Event) uint64, total uint64) ([]Subpath, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	st, al, err := countWindows(src, workers, opts, costEvents)
	if err != nil {
		return nil, err
	}
	var result []Subpath
	if st != nil && total != 0 {
		result = harvestPacked(st.tables, opts, al, costOf, total, workers)
	}
	sortSubpaths(result)
	opts.metrics().SubpathsEmitted.Add(uint64(len(result)))
	return result, nil
}

// harvestPacked turns packed window counts (tables[i] holds length
// MinLen+i) into minimal hot subpaths, on up to workers goroutines, one
// length at a time each. A window's unit cost is summed from its ranks
// through a per-rank cost array and the threshold test runs on that, so
// cold windows are never decoded. The first pass keeps each length's
// hot windows; the second emits a hot window unless a proper subwindow
// of length >= MinLen is hot, testing packed sub-keys against the
// shorter lengths' hot tables, which by then are complete and read
// only. Events are materialized only for the subpaths emitted.
func harvestPacked(tables []*engine.WindowTable, opts Options, al *engine.Alphabet, costOf func(trace.Event) uint64, total uint64, workers int) []Subpath {
	costs := make([]uint64, len(al.Values)+1) // costs[r]: one occurrence of rank r
	for i, v := range al.Values {
		costs[i+1] = costOf(trace.Event(v))
	}
	// cost returns the window's aggregate cost and fraction, leaving its
	// ranks in ranks.
	cost := func(p engine.Packing, key []uint64, count uint64, ranks []uint64) (uint64, float64) {
		p.Unpack(key, ranks)
		var unit uint64
		for _, r := range ranks {
			unit += costs[r]
		}
		c := unit * count
		return c, float64(c) / float64(total)
	}
	hot := make([]*engine.WindowTable, len(tables))
	longestFirst(len(tables), workers, func(li int) {
		p := tables[li].P
		h := engine.NewWindowTable(p)
		ranks := make([]uint64, p.L)
		tables[li].Each(func(key []uint64, count uint64) {
			if _, frac := cost(p, key, count, ranks); frac < opts.Threshold {
				return
			}
			h.Add(key, count)
		})
		hot[li] = h
	})
	found := make([][]Subpath, len(tables))
	longestFirst(len(tables), workers, func(li int) {
		p := hot[li].P
		ranks := make([]uint64, p.L)
		hot[li].Each(func(key []uint64, count uint64) {
			if containsHot(p, key, hot[:li]) {
				return
			}
			c, frac := cost(p, key, count, ranks)
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
		if hot.Len() == 0 {
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
