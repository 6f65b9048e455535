package engine

import (
	"runtime"

	"repro/internal/sequitur"
)

// Fold is one analysis expressed over the engine: a per-chunk pass that
// reduces one grammar's Analysis to a partial result, and an associative
// merge that combines partial results in chunk order. Chunk must be a
// pure function of (i, a) — it runs concurrently across chunks — while
// Merge runs sequentially, left to right, so results are identical for
// every worker count. Merge may run while later chunks' passes are
// still in flight, so it must touch only acc and next.
type Fold[R any] interface {
	// Chunk reduces chunk i's analysis to a partial result.
	Chunk(i int, a *Analysis) R
	// Merge folds the next chunk's partial result into the accumulator
	// and returns the new accumulator. It is called in chunk order,
	// starting from Chunk(0)'s result.
	Merge(acc, next R) R
}

// Workers normalizes a worker-count option: non-positive means
// GOMAXPROCS.
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Map builds each snapshot's Analysis and applies fn to it on `workers`
// goroutines (normalized by Workers), returning results in chunk order.
// fn must only write state owned by index i. It is MapSource over an
// in-memory slice, whose chunk access cannot fail.
func Map[R any](snaps []*sequitur.Snapshot, workers int, fn func(i int, a *Analysis) R) []R {
	out, _ := MapSource(SliceSource(snaps), workers, fn)
	return out
}

// Run executes a Fold over the snapshot sequence: per-chunk passes in
// parallel, merged sequentially in chunk order. With a single
// snapshot the result is Chunk(0, ...) — the monolithic case is the
// one-chunk special case of the same engine. It is RunSource over an
// in-memory slice, whose chunk access cannot fail.
func Run[R any](snaps []*sequitur.Snapshot, workers int, f Fold[R]) R {
	out, _ := RunSource(SliceSource(snaps), workers, f)
	return out
}

// Boundary is one chunk's contribution to cross-seam window counting:
// its expanded length plus the materialized head and tail regions, each
// at most `width` events (fewer only when the chunk itself is shorter).
type Boundary struct {
	// Length is the chunk's expanded event count.
	Length uint64
	// Head holds the chunk's first min(Length, width) events.
	Head []uint64
	// Tail holds the chunk's last min(Length, width) events.
	Tail []uint64
}

// Boundary materializes the chunk's boundary regions of the given width.
// Width is the longest window length minus one: a window crossing a seam
// touches at most width events on either side.
func (a *Analysis) Boundary(width int) Boundary {
	b := Boundary{Length: a.Length()}
	k := uint64(width)
	if k > b.Length {
		k = b.Length
	}
	if k > 0 {
		b.Head = a.Collect(0, 0, k, nil)
		b.Tail = a.Collect(0, b.Length-k, k, nil)
	}
	return b
}

// CrossingWindows visits, for every chunk i, each occurrence of a
// length-l window that starts inside chunk i but extends past its end
// into later chunks. Each crossing occurrence's start position lies in
// exactly one chunk, so it is visited exactly once, with implicit weight
// 1 (boundary regions are raw positions, not grammar-weighted). The
// window slice is reused across calls; visitors must copy if they
// retain it. Boundaries must have been built with width >= l-1.
func CrossingWindows(bounds []Boundary, l int, visit func(window []uint64)) {
	if l < 2 {
		return // a 1-window cannot cross a boundary
	}
	seamStreams(bounds, l-1, func(stream []uint64, t int) {
		// Window starts at stream index s, crossing iff it extends past
		// the chunk end (s+l > t) while starting inside it (s < t).
		for s := max(0, t-l+1); s < t && s+l <= len(stream); s++ {
			visit(stream[s : s+l])
		}
	})
}

// seamStreams calls visit, for every nonempty chunk in order, with the
// chunk's tail followed by up to `after` events of the later chunks,
// and t, the tail's length: every event a window that starts inside the
// chunk and crosses its end can touch, for windows of up to after+1
// events and boundaries of width >= after. The stream is reused across
// calls.
func seamStreams(bounds []Boundary, after int, visit func(stream []uint64, t int)) {
	var stream []uint64
	for i, b := range bounds {
		if b.Length == 0 {
			continue
		}
		// The tail covers every crossing start: len(Tail) >= min(Length, after).
		stream = append(stream[:0], b.Tail...)
		need := after
		for j := i + 1; j < len(bounds) && need > 0; j++ {
			h := bounds[j].Head
			if len(h) > need {
				h = h[:need]
			}
			stream = append(stream, h...)
			need -= len(h)
		}
		visit(stream, len(b.Tail))
	}
}
