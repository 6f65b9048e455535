package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/sequitur"
)

// Source is a sequence of chunk grammars an analysis can fold over
// without requiring them all in memory at once. The in-memory artifacts
// satisfy it trivially (SliceSource); lazy views materialize each chunk
// inside the Chunk call, so a corrupt or unreadable chunk surfaces as
// an error from the fold instead of failing the open.
//
// Chunk must be safe for concurrent calls on distinct indices and may
// be called more than once per index; implementations return a snapshot
// the caller may read freely.
type Source interface {
	// NumChunks reports the number of chunk grammars.
	NumChunks() int
	// Chunk returns chunk i's grammar.
	Chunk(i int) (*sequitur.Snapshot, error)
}

// SliceSource adapts an in-memory snapshot sequence to Source. Chunk
// never fails.
type SliceSource []*sequitur.Snapshot

// NumChunks implements Source.
func (s SliceSource) NumChunks() int { return len(s) }

// Chunk implements Source.
func (s SliceSource) Chunk(i int) (*sequitur.Snapshot, error) { return s[i], nil }

// MapSource builds each chunk's Analysis and applies fn to it on
// `workers` goroutines (normalized by Workers), returning results in
// chunk order. fn must only write state owned by index i. If any chunk
// fails to load, every chunk is still visited and the error for the
// lowest-indexed failing chunk is returned — deterministic at every
// worker count.
func MapSource[R any](src Source, workers int, fn func(i int, a *Analysis) R) ([]R, error) {
	out := make([]R, src.NumChunks())
	if err := eachChunk(src, workers, func(i int, a *Analysis) { out[i] = fn(i, a) }); err != nil {
		return nil, err
	}
	return out, nil
}

// eachChunk builds every chunk's Analysis and passes it to visit on
// `workers` goroutines, returning the error of the lowest-indexed chunk
// that failed to load.
func eachChunk(src Source, workers int, visit func(i int, a *Analysis)) error {
	errs := make([]error, src.NumChunks())
	ForEach(len(errs), workers, func(i int) {
		sn, err := src.Chunk(i)
		if err != nil {
			errs[i] = err
			return
		}
		visit(i, NewAnalysis(sn))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEach calls fn(i) for every i in [0, n) on up to `workers`
// goroutines (normalized by Workers), which claim indices in ascending
// order, and returns when every call has. fn must only write state
// owned by index i.
func ForEach(n, workers int, fn func(i int)) {
	if workers = Workers(workers); workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunSource executes a Fold over a Source: per-chunk passes in parallel,
// each part merged into the accumulator as soon as every earlier part
// has been, so merging overlaps the remaining chunk passes and only
// parts that finished out of order wait in memory. Merges happen one at
// a time in chunk order, whichever worker performs them, so the result
// is that of the sequential left-to-right merge. It is Run lifted to
// fallible chunk access; over a SliceSource the two are identical.
func RunSource[R any](src Source, workers int, f Fold[R]) (R, error) {
	var (
		mu      sync.Mutex
		ready   = map[int]R{} // finished parts not yet merged
		next    int           // index of the next part to merge
		merging bool          // a worker is draining ready into acc
		acc     R
	)
	err := eachChunk(src, workers, func(i int, a *Analysis) {
		part := f.Chunk(i, a)
		mu.Lock()
		ready[i] = part
		if merging {
			mu.Unlock()
			return
		}
		merging = true
		for {
			p, ok := ready[next]
			if !ok {
				merging = false
				mu.Unlock()
				return
			}
			delete(ready, next)
			first := next == 0
			next++
			mu.Unlock()
			if first {
				acc = p
			} else {
				acc = f.Merge(acc, p)
			}
			mu.Lock()
		}
	})
	if err != nil {
		var zero R
		return zero, err
	}
	return acc, nil
}
