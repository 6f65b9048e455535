package hotpath

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
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

// TestPackedParityOnGolden: on the committed corpus — 10 workloads × 4
// formats — the packed search through FindView reproduces the
// decompress-and-scan oracle exactly, at one and two workers.
func TestPackedParityOnGolden(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mono, err := goldenView(t, name, "wpp1").WPP()
			if err != nil {
				t.Fatal(err)
			}
			want, err := FindByScan(mono, goldenOpts)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("oracle found no hot subpaths; the comparison would be vacuous")
			}
			for _, ext := range goldenExts {
				for _, workers := range []int{1, 2} {
					got, err := FindView(goldenView(t, name, ext), goldenOpts, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s workers=%d: FindView diverges from FindByScan:\n got %v\nwant %v", ext, workers, render(got), render(want))
					}
				}
			}
		})
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

// FuzzPackedWindows: for a random event stream over an alphabet of
// 1–300 paths, random window lengths and a random chunk size, Find and
// FindChunked must equal the FindByScan oracle.
func FuzzPackedWindows(f *testing.F) {
	f.Add([]byte("abcabcabcabdabcabc"), uint16(3), uint8(2), uint8(4), uint16(5), uint8(20))
	f.Add([]byte{0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 7, 7, 7}, uint16(300), uint8(1), uint8(16), uint16(3), uint8(5))
	f.Add(make([]byte, 64), uint16(1), uint8(3), uint8(9), uint16(64), uint8(100))
	f.Fuzz(func(t *testing.T, data []byte, alphabet uint16, minLen, span uint8, chunk uint16, thr uint8) {
		n := 1 + int(alphabet)%300
		ids := make([]uint64, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(ids) < 2000; i += 2 {
			ids = append(ids, uint64(int(data[i])<<8|int(data[i+1]))%uint64(n))
		}
		opts := Options{
			MinLen:    1 + int(minLen)%8,
			Threshold: (1 + float64(thr%200)) / 1000,
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
// artifact at one worker may allocate, in bytes: the packed search's
// allocation when the bound was set, plus 25%.
var findAllocBound = map[string]uint64{
	"bfs.wpc1":      66_271_000,
	"bfs.wpp2":      19_932_000,
	"compress.wpc1": 11_685_000,
	"compress.wpp2": 7_909_000,
	"expr.wpc1":     25_613_000,
	"expr.wpp2":     7_767_000,
	"game.wpc1":     21_226_000,
	"game.wpp2":     9_975_000,
	"hash.wpc1":     1_597_000,
	"hash.wpp2":     1_179_000,
	"lexer.wpc1":    6_040_000,
	"lexer.wpp2":    4_354_000,
	"matrix.wpc1":   8_149_000,
	"matrix.wpp2":   654_000,
	"queens.wpc1":   5_194_000,
	"queens.wpp2":   2_798_000,
	"sim.wpc1":      655_000,
	"sim.wpp2":      355_000,
	"sort.wpc1":     5_484_000,
	"sort.wpp2":     3_003_000,
}

// TestFindViewAllocGate is a timing-free regression gate on the packed
// search: FindView on every golden wpp2 and wpc1 artifact stays under
// its committed allocation bound, and the packed tables hold exactly as
// many distinct windows as the scan oracle finds.
func TestFindViewAllocGate(t *testing.T) {
	for _, name := range workloads.Names() {
		mono, err := goldenView(t, name, "wpp1").WPP()
		if err != nil {
			t.Fatal(err)
		}
		wantDistinct := scanDistinct(mono, goldenOpts)
		for _, ext := range []string{"wpp2", "wpc1"} {
			v := goldenView(t, name, ext)
			st, _, err := countWindows(v, 1, goldenOpts, v.CostEvents())
			if err != nil {
				t.Fatal(err)
			}
			distinct := 0
			for _, tb := range st.tables {
				distinct += tb.Len()
			}
			if distinct != wantDistinct {
				t.Errorf("%s.%s: packed tables hold %d distinct windows, scan finds %d", name, ext, distinct, wantDistinct)
			}
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
