package engine

import (
	"math/rand"
	"reflect"
	"testing"
)

// countWindowsStrings is the string-keyed counter CountWindows used to
// be, kept as the adapter's oracle: the same boundary-crossing
// enumeration, with every window inserted under its AppendKey string.
func countWindowsStrings(a *Analysis, l int, counts map[string]uint64) {
	if len(a.Snap.Rules) == 0 {
		return
	}
	if l == 1 {
		a.Terminals(func(v, uses uint64) {
			counts[string(AppendKey(nil, []uint64{v}))] += uses
		})
		return
	}
	L := uint64(l)
	var terms []uint64
	for r := range a.Snap.Rules {
		if a.Uses[r] == 0 {
			continue
		}
		a.crossingRuns(int32(r), L, L, func(lo, hi uint64) {
			terms = a.Collect(int32(r), lo, hi-1+L-lo, terms[:0])
			for o := lo; o < hi; o++ {
				counts[string(AppendKey(nil, terms[o-lo:o-lo+L]))] += a.Uses[r]
			}
		})
	}
}

// TestCountWindowsAdapterMatchesStringKeys: the map CountWindows fills
// through the packed counter is key-for-key the map the string-keyed
// counter fills, for narrow and wide alphabets and sparse values.
func TestCountWindowsAdapterMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, alphabet := range []int{1, 3, 40, 300} {
		syms := randSyms(rng, 2000, alphabet)
		for i := range syms {
			syms[i] = syms[i]*7919 + 1<<40 // sparse, wide values
		}
		a := NewAnalysis(buildSnap(t, syms))
		for _, l := range []int{1, 2, 4, 9, 16} {
			got, want := map[string]uint64{}, map[string]uint64{}
			a.CountWindows(l, got)
			countWindowsStrings(a, l, want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("alphabet %d, l=%d: adapter has %d keys, string counter %d", alphabet, l, len(got), len(want))
			}
		}
	}
}

// TestPackingRoundTrip checks Push/Pack, Unpack and Sub against the
// ranks they encode, at widths that put keys in one, two and three
// words and split ranks across word boundaries.
func TestPackingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, b := range []uint{1, 5, 6, 9, 13, 33} {
		for _, l := range []int{1, 4, 7, 16} {
			p := NewPacking(l, b)
			if want := (l*int(b) + 63) / 64; p.Stride != want {
				t.Fatalf("b=%d l=%d: stride %d, want %d", b, l, p.Stride, want)
			}
			window := make([]uint64, l)
			for i := range window {
				window[i] = uint64(rng.Int63()) & (1<<b - 1)
			}
			key := make([]uint64, p.Stride)
			p.Pack(key, window)
			got := make([]uint64, l)
			p.Unpack(key, got)
			if !reflect.DeepEqual(got, window) {
				t.Fatalf("b=%d l=%d: Unpack %v, want %v", b, l, got, window)
			}
			// Sliding one more rank in equals packing the shifted window.
			next := uint64(rng.Int63()) & (1<<b - 1)
			p.Push(key, next)
			shifted := make([]uint64, p.Stride)
			p.Pack(shifted, append(window[1:], next))
			if !reflect.DeepEqual(key, shifted) {
				t.Fatalf("b=%d l=%d: Push disagrees with Pack of the shifted window", b, l)
			}
			window = append(window[1:], next)
			for sl := 1; sl <= l; sl++ {
				q := NewPacking(sl, b)
				sub, want := make([]uint64, q.Stride), make([]uint64, q.Stride)
				for off := 0; off+sl <= l; off++ {
					p.Sub(key, off, q, sub)
					q.Pack(want, window[off:off+sl])
					if !reflect.DeepEqual(sub, want) {
						t.Fatalf("b=%d l=%d: Sub(off %d, len %d) = %x, want %x", b, l, off, sl, sub, want)
					}
				}
			}
		}
	}
}

// TestWindowTableCountsLikeAMap drives a table through growth, Reserve
// and Merge and checks it against a map.
func TestWindowTableCountsLikeAMap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := NewPacking(8, 9) // two words
	want := map[[2]uint64]uint64{}
	tables := []*WindowTable{NewWindowTable(p), NewWindowTable(p)}
	tables[1].Reserve(1000)
	key := make([]uint64, p.Stride)
	for i := 0; i < 20000; i++ {
		for j := range key {
			key[j] = uint64(rng.Intn(300))
		}
		n := uint64(rng.Intn(5) + 1)
		tables[i%2].Add(key, n)
		want[[2]uint64{key[0], key[1]}] += n
	}
	tables[0].Merge(tables[1])
	got := map[[2]uint64]uint64{}
	tables[0].Each(func(k []uint64, n uint64) { got[[2]uint64{k[0], k[1]}] = n })
	if !reflect.DeepEqual(got, want) || tables[0].Len() != len(want) {
		t.Fatalf("table holds %d windows (Len %d), map %d, or counts differ", len(got), tables[0].Len(), len(want))
	}
	for k, n := range want {
		if c := tables[0].Count(k[:]); c != n {
			t.Fatalf("Count(%v) = %d, want %d", k, c, n)
		}
	}
	if tables[0].Count([]uint64{1 << 20, 0}) != 0 {
		t.Fatal("absent key has a count")
	}
}
