package hotpath

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/wpp"
)

// goldenDir holds the committed artifact corpus: every bundled workload
// at Small scale in all four formats (see internal/experiments).
var goldenDir = filepath.Join("..", "experiments", "testdata", "golden")

var goldenExts = []string{"wpp1", "wpp2", "wpc1", "wpc2"}

// goldenView opens one committed golden artifact as a view.
func goldenView(t testing.TB, name, ext string) *wpp.ArtifactView {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name+"."+ext))
	if err != nil {
		t.Fatal(err)
	}
	v, err := wpp.NewView(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

// goldenOpts are the hot-query settings of the E6 experiment.
var goldenOpts = Options{MinLen: 4, MaxLen: 16, Threshold: 0.005}

// parityCases are the settings TestPackedParityOnGolden checks: the E6
// settings, then the edges of the two-phase search — no longer lengths,
// single-event windows, a threshold of 1, and a threshold so low that
// every MinLen window is hot and phase B skips every longer window.
var parityCases = []struct {
	name    string
	opts    Options
	skipAll bool
}{
	{"e6", goldenOpts, false},
	{"min-eq-max", Options{MinLen: 6, MaxLen: 6, Threshold: 0.005}, false},
	{"min-1", Options{MinLen: 1, MaxLen: 8, Threshold: 0.005}, false},
	{"threshold-1", Options{MinLen: 4, MaxLen: 16, Threshold: 1}, false},
	{"all-hot", Options{MinLen: 4, MaxLen: 16, Threshold: math.SmallestNonzeroFloat64}, true},
}

// TestPackedParityOnGolden: on the committed corpus — 10 workloads × 4
// formats — the packed search through FindView reproduces the
// decompress-and-scan oracle exactly, at one and two workers, at the E6
// settings and at each edge setting of parityCases. With every MinLen
// window hot, phase B must count nothing.
func TestPackedParityOnGolden(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mono, err := goldenView(t, name, "wpp1").WPP()
			if err != nil {
				t.Fatal(err)
			}
			for _, pc := range parityCases {
				want, err := FindByScan(mono, pc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if pc.opts == goldenOpts && len(want) == 0 {
					t.Fatal("oracle found no hot subpaths; the comparison would be vacuous")
				}
				for _, ext := range goldenExts {
					v := goldenView(t, name, ext)
					for _, workers := range []int{1, 2} {
						got, err := FindView(v, pc.opts, workers)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s workers=%d: FindView diverges from FindByScan:\n got %v\nwant %v", pc.name, ext, workers, render(got), render(want))
						}
					}
					if pc.skipAll {
						checkPhaseBEmpty(t, pc.name+" "+ext, v, pc.opts)
					}
				}
			}
		})
	}
}

// checkPhaseBEmpty checks, at settings under which every MinLen window
// of v is hot, that phase B counts no window.
func checkPhaseBEmpty(t *testing.T, label string, v *wpp.ArtifactView, opts Options) {
	t.Helper()
	wc, err := countMinLen(v, 1, opts, v.CostEvents())
	if err != nil {
		t.Fatal(err)
	}
	hot := hotWindows(wc.tables[0], rankCosts(wc.al, v.PathCost), v.TotalInstructions(), opts.Threshold)
	if hot.Len() != wc.tables[0].Len() {
		t.Fatalf("%s: %d of %d MinLen windows hot, want all", label, hot.Len(), wc.tables[0].Len())
	}
	if err := wc.countLonger(hot); err != nil {
		t.Fatal(err)
	}
	for _, tb := range wc.tables[1:] {
		if tb != nil && tb.Len() != 0 {
			t.Fatalf("%s: phase B counted %d length-%d windows with every MinLen window hot", label, tb.Len(), tb.P.L)
		}
	}
}

// TestPackedWideAlphabet: more than 256 distinct terminals at L = 16
// take 9-bit ranks, so every key spans three words, and the search must
// still match the scan oracle, monolithic and chunked.
func TestPackedWideAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const distinct = 300
	var ids []uint64
	// A hot loop over a few paths, interleaved with cold noise that
	// covers the whole alphabet.
	for i := 0; i < 3000; i++ {
		if i%3 == 0 {
			ids = append(ids, uint64(rng.Intn(distinct)))
		} else {
			ids = append(ids, uint64(i%7))
		}
	}
	for v := 0; v < distinct; v++ {
		ids = append(ids, uint64(v))
	}
	w := syntheticWPP(ids)
	if n := w.DistinctPaths(); n <= 256 {
		t.Fatalf("only %d distinct paths", n)
	}
	values := make([]uint64, w.DistinctPaths())
	for i := range values {
		values[i] = uint64(i)
	}
	if s := engine.NewPacking(16, engine.NewAlphabet(values).Bits).Stride; s != 3 {
		t.Fatalf("L=16 keys over %d ranks take %d words, want 3", len(values), s)
	}
	opts := Options{MinLen: 4, MaxLen: 16, Threshold: 0.002}
	want, err := FindByScan(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("oracle found no hot subpaths")
	}
	got, err := Find(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Find diverges from FindByScan:\n got %v\nwant %v", render(got), render(want))
	}
	got, err = FindChunked(syntheticChunked(ids, 97), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FindChunked diverges from FindByScan:\n got %v\nwant %v", render(got), render(want))
	}
}

// TestPackedTerminalMissingFromCostTable: a chunk whose terminals are
// absent from the artifact's cost table is still counted exactly, those
// events costing 0 — the answer the scan oracle gives — and nothing
// panics.
func TestPackedTerminalMissingFromCostTable(t *testing.T) {
	var head, tail []uint64
	for i := 0; i < 400; i++ {
		head = append(head, uint64(i%3))
		tail = append(tail, uint64(i%3), uint64(5+i%2)) // 5, 6 never priced
	}
	// Copying an artifact struct keeps its cost table, which prices only
	// the head's events.
	h := syntheticChunked(head, 64)
	c := *h
	c.Chunks = append(c.Chunks[:len(c.Chunks):len(c.Chunks)], syntheticChunked(tail, 64).Chunks...)
	c.Events += uint64(len(tail))
	w := *syntheticWPP(head)
	w.Grammar = syntheticWPP(append(append([]uint64{}, head...), tail...)).Grammar
	w.Events = c.Events
	if w.PathCost(trace.MakeEvent(0, 5)) != 0 || c.PathCost(trace.MakeEvent(0, 6)) != 0 {
		t.Fatal("test artifact prices the tail's new events")
	}
	opts := Options{MinLen: 2, MaxLen: 6, Threshold: 0.01}
	want, err := FindByScan(&w, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Find(&w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Find diverges from FindByScan:\n got %v\nwant %v", render(got), render(want))
	}
	for _, workers := range []int{1, 3} {
		got, err := FindChunked(&c, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: FindChunked diverges from FindByScan:\n got %v\nwant %v", workers, render(got), render(want))
		}
	}
}

// changingSource serves each chunk of before on its first load and of
// after on every later one, like a mapped file rewritten between the
// search's two passes.
type changingSource struct {
	before, after []*sequitur.Snapshot
	loads         map[int]int
}

func (s *changingSource) NumChunks() int { return len(s.before) }

func (s *changingSource) Chunk(i int) (*sequitur.Snapshot, error) {
	s.loads[i]++
	if s.loads[i] == 1 {
		return s.before[i], nil
	}
	return s.after[i], nil
}

// TestChunkChangedBetweenPhases: a chunk that gains a terminal between
// the two counting passes — which phase B's ranks could not express —
// fails the search with errChunkChanged instead of returning counts
// from a mix of both contents.
func TestChunkChangedBetweenPhases(t *testing.T) {
	var before, after []uint64
	for i := 0; i < 600; i++ {
		before = append(before, uint64(i%3))
		after = append(after, uint64(i%3))
	}
	after[300] = 9 // never priced, absent from phase A's alphabet
	c := syntheticChunked(before, 128)
	src := &changingSource{before: c.Chunks, after: syntheticChunked(after, 128).Chunks, loads: map[int]int{}}
	opts := Options{MinLen: 2, MaxLen: 6, Threshold: 0.01}
	_, err := find(src, 1, opts, c.CostEvents(), c.PathCost, c.Instructions)
	if !errors.Is(err, errChunkChanged) {
		t.Fatalf("got %v, want errChunkChanged", err)
	}
}

// FuzzPackedWindows: for a random event stream over an alphabet of
// 1–300 paths, random window lengths (MinLen 1–16, MaxLen up to 15
// past it, MinLen == MaxLen included), a random threshold from the
// smallest positive float (every window with a cost is hot, so phase B
// skips everything) through 1, and a random chunk size, Find and
// FindChunked must equal the FindByScan oracle.
func FuzzPackedWindows(f *testing.F) {
	f.Add([]byte("abcabcabcabdabcabc"), uint16(3), uint8(2), uint8(4), uint16(5), uint16(20))
	f.Add([]byte{0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 7, 7, 7}, uint16(300), uint8(1), uint8(16), uint16(3), uint16(5))
	f.Add(make([]byte, 64), uint16(1), uint8(3), uint8(9), uint16(64), uint16(100))
	f.Add([]byte("abcabcabcabdabcabcabd"), uint16(5), uint8(0), uint8(6), uint16(7), uint16(0))
	f.Add([]byte("aabbaabbaabbabab"), uint16(4), uint8(3), uint8(0), uint16(9), uint16(1000))
	f.Fuzz(func(t *testing.T, data []byte, alphabet uint16, minLen, span uint8, chunk uint16, thr uint16) {
		n := 1 + int(alphabet)%300
		ids := make([]uint64, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(ids) < 2000; i += 2 {
			ids = append(ids, uint64(int(data[i])<<8|int(data[i+1]))%uint64(n))
		}
		opts := Options{MinLen: 1 + int(minLen)%16, Threshold: math.SmallestNonzeroFloat64}
		if thr %= 1001; thr > 0 {
			opts.Threshold = float64(thr) / 1000
		}
		opts.MaxLen = opts.MinLen + int(span)%16
		w := syntheticWPP(ids)
		want, err := FindByScan(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Find(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Find diverges from FindByScan:\n got %v\nwant %v", render(got), render(want))
		}
		got, err = FindChunked(syntheticChunked(ids, 1+uint64(chunk)%512), opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FindChunked diverges from FindByScan:\n got %v\nwant %v", render(got), render(want))
		}
	})
}

// scanDistinct counts the distinct windows of every length in opts by
// sliding over the expanded trace.
func scanDistinct(w *wpp.WPP, opts Options) int {
	var events []uint64
	w.Walk(func(e trace.Event) bool { events = append(events, uint64(e)); return true })
	distinct := 0
	for l := opts.MinLen; l <= opts.MaxLen; l++ {
		seen := map[string]bool{}
		for i := 0; i+l <= len(events); i++ {
			seen[string(engine.AppendKey(nil, events[i:i+l]))] = true
		}
		distinct += len(seen)
	}
	return distinct
}

// findAllocBound is the most a FindView of each golden wpp2/wpc1
// artifact at one worker may allocate, in bytes: the two-phase packed
// search's allocation when the bound was set, plus 25%.
var findAllocBound = map[string]uint64{
	"bfs.wpc1":      5_676_000,
	"bfs.wpp2":      1_264_000,
	"compress.wpc1": 1_100_000,
	"compress.wpp2": 490_000,
	"expr.wpc1":     13_623_000,
	"expr.wpp2":     6_762_000,
	"game.wpc1":     2_120_000,
	"game.wpp2":     655_000,
	"hash.wpc1":     169_000,
	"hash.wpp2":     110_000,
	"lexer.wpc1":    581_000,
	"lexer.wpp2":    264_000,
	"matrix.wpc1":   977_000,
	"matrix.wpp2":   84_000,
	"queens.wpc1":   642_000,
	"queens.wpp2":   402_000,
	"sim.wpc1":      217_000,
	"sim.wpp2":      137_000,
	"sort.wpc1":     738_000,
	"sort.wpp2":     506_000,
}

// TestFindViewAllocGate is a timing-free regression gate on the packed
// search: FindView on every golden wpp2 and wpc1 artifact stays under
// its committed allocation bound, the unpruned packed tables hold
// exactly as many distinct windows as the scan oracle finds, and the
// pruned tables hold exactly those of them that contain no hot MinLen
// window, with the same counts.
func TestFindViewAllocGate(t *testing.T) {
	for _, name := range workloads.Names() {
		mono, err := goldenView(t, name, "wpp1").WPP()
		if err != nil {
			t.Fatal(err)
		}
		wantDistinct := scanDistinct(mono, goldenOpts)
		for _, ext := range []string{"wpp2", "wpc1"} {
			v := goldenView(t, name, ext)
			wc, err := countMinLen(v, 1, goldenOpts, v.CostEvents())
			if err != nil {
				t.Fatal(err)
			}
			if err := wc.countLonger(nil); err != nil {
				t.Fatal(err)
			}
			distinct := 0
			for _, tb := range wc.tables {
				distinct += tb.Len()
			}
			if distinct != wantDistinct {
				t.Errorf("%s.%s: packed tables hold %d distinct windows, scan finds %d", name, ext, distinct, wantDistinct)
			}
			pruned, err := countMinLen(v, 1, goldenOpts, v.CostEvents())
			if err != nil {
				t.Fatal(err)
			}
			hot := hotWindows(pruned.tables[0], rankCosts(pruned.al, v.PathCost), v.TotalInstructions(), goldenOpts.Threshold)
			if err := pruned.countLonger(hot); err != nil {
				t.Fatal(err)
			}
			// Phase B keeps exactly the longer windows that contain no
			// hot MinLen window, each with its full count.
			hotTab := []*engine.WindowTable{hot}
			kept, want := 0, 0
			for li, full := range wc.tables {
				full.Each(func(key []uint64, n uint64) {
					if li > 0 && containsHot(full.P, key, hotTab) {
						return
					}
					want++
					if tb := pruned.tables[li]; tb == nil || tb.Count(key) != n {
						t.Errorf("%s.%s: a length-%d window without a hot MinLen window lost its count %d after pruning", name, ext, full.P.L, n)
					}
				})
				if tb := pruned.tables[li]; tb != nil {
					kept += tb.Len()
				}
			}
			if kept != want {
				t.Errorf("%s.%s: pruned tables hold %d windows, want the %d without a hot MinLen window", name, ext, kept, want)
			}
			t.Logf("%s.%s: pruned tables hold %d of %d distinct windows", name, ext, kept, distinct)
			alloc := ^uint64(0)
			for rep := 0; rep < 3; rep++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				if _, err := FindView(v, goldenOpts, 1); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("%s.%s: FindView allocated %d bytes", name, ext, alloc)
			bound, ok := findAllocBound[name+"."+ext]
			if !ok {
				t.Errorf("%s.%s: no committed allocation bound", name, ext)
			} else if alloc > bound {
				t.Errorf("%s.%s: FindView allocated %d bytes, bound %d", name, ext, alloc, bound)
			}
		}
	}
}
