package wpp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bl"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// ChunkedBuilder builds a whole program path in bounded memory: the event
// stream is cut into fixed-size chunks and each chunk is compressed by
// its own SEQUITUR grammar, which is snapshotted and the live grammar
// discarded. Larus notes that SEQUITUR's memory grows with the (unique
// structure of the) trace; chunking caps live memory at the cost of
// repetition that spans chunk boundaries — the A3 ablation quantifies
// that cost.
type ChunkedBuilder struct {
	chunkSize uint64
	cur       *sequitur.Grammar
	curCount  uint64
	chunks    []*sequitur.Snapshot
	funcs     []FuncInfo
	nums      []*bl.Numbering
	events    uint64
	costs     map[trace.Event]uint64
	// peakRHS tracks the largest live grammar seen, the memory bound the
	// chunking buys.
	peakRHS int
	metrics BuildMetrics
	// lazyCosts: see MonoBuilder.
	lazyCosts bool
}

// SetMetrics installs observability hooks (see BuildMetrics); nil
// disables instrumentation. Call before feeding events.
func (b *ChunkedBuilder) SetMetrics(m *BuildMetrics) {
	b.metrics = m.orNoop()
	b.cur.SetMetrics(b.metrics.Grammar)
}

// NewChunkedBuilder returns a builder that seals a chunk every chunkSize
// events. chunkSize must be positive.
func NewChunkedBuilder(names []string, nums []*bl.Numbering, chunkSize uint64) *ChunkedBuilder {
	if chunkSize == 0 {
		panic("wpp: chunk size must be positive")
	}
	funcs := make([]FuncInfo, len(names))
	for i, n := range names {
		funcs[i] = FuncInfo{Name: n}
		if nums != nil {
			funcs[i].NumPaths = nums[i].NumPaths
		}
	}
	return &ChunkedBuilder{
		chunkSize: chunkSize,
		cur:       sequitur.New(),
		funcs:     funcs,
		nums:      nums,
		costs:     map[trace.Event]uint64{},
	}
}

// Add feeds one event.
func (b *ChunkedBuilder) Add(e trace.Event) {
	b.cur.Append(uint64(e))
	b.curCount++
	b.events++
	b.metrics.EventsIngested.Inc()
	if _, seen := b.costs[e]; !seen {
		cost := uint64(1)
		if b.nums != nil {
			w, err := b.nums[e.Func()].PathWeight(e.Path())
			if err != nil {
				panic(fmt.Sprintf("wpp: invalid event %v: %v", e, err))
			}
			cost = uint64(w)
		}
		b.costs[e] = cost
	}
	if b.curCount >= b.chunkSize {
		b.seal()
	}
}

// AddBatch feeds a slice of events, cutting it at chunk boundaries and
// compressing each piece through the batched SEQUITUR fast path. It is
// equivalent to calling Add per element; distinct-path costs are derived
// from the chunk grammars at Finish. Add and AddBatch may be mixed.
func (b *ChunkedBuilder) AddBatch(es []trace.Event) {
	if len(es) == 0 {
		return
	}
	b.events += uint64(len(es))
	b.metrics.EventsIngested.Add(uint64(len(es)))
	b.lazyCosts = true
	for len(es) > 0 {
		n := uint64(len(es))
		if room := b.chunkSize - b.curCount; n > room {
			n = room
		}
		sequitur.AppendBatchOf(b.cur, es[:n])
		b.curCount += n
		es = es[n:]
		if b.curCount >= b.chunkSize {
			b.seal()
		}
	}
}

func (b *ChunkedBuilder) seal() {
	if st := b.cur.Stats(); st.RHSSymbols > b.peakRHS {
		b.peakRHS = st.RHSSymbols
	}
	b.chunks = append(b.chunks, b.cur.Snapshot())
	// Reset rewinds the grammar's slab arena and digram table without
	// releasing them (and keeps the metrics hooks), so compressing the
	// next chunk allocates nothing but its snapshot — the same pooling
	// the parallel builder's workers do.
	b.cur.Reset()
	b.curCount = 0
	b.metrics.ChunksSealed.Inc()
}

// ChunkedWPP is the sealed artifact.
type ChunkedWPP struct {
	Funcs        []FuncInfo
	Chunks       []*sequitur.Snapshot
	ChunkSize    uint64
	Events       uint64
	Instructions uint64
	// PeakLiveRHS is the largest number of live grammar symbols during
	// construction — the working-set bound chunking provides.
	PeakLiveRHS int
	// Version selects the on-disk encoding (FormatV1 or FormatV2; zero
	// encodes as v1). Decoding sets it to the format that was read, so
	// the canonical re-encoding reproduces the input bytes.
	Version uint8
	costs   map[trace.Event]uint64
}

// Finish seals the current partial chunk and returns the artifact.
func (b *ChunkedBuilder) Finish(instructions uint64) *ChunkedWPP {
	if b.curCount > 0 {
		b.seal()
	} else if st := b.cur.Stats(); st.RHSSymbols > b.peakRHS {
		b.peakRHS = st.RHSSymbols
	}
	if b.lazyCosts {
		fillCosts(b.costs, b.nums, b.chunks...)
	}
	return &ChunkedWPP{
		Funcs:        b.funcs,
		Chunks:       b.chunks,
		ChunkSize:    b.chunkSize,
		Events:       b.events,
		Instructions: instructions,
		PeakLiveRHS:  b.peakRHS,
		costs:        b.costs,
	}
}

// Walk yields the full event trace across all chunks in order.
func (c *ChunkedWPP) Walk(yield func(trace.Event) bool) {
	for _, ch := range c.Chunks {
		if len(ch.Rules) == 0 {
			continue
		}
		if !ch.Expand(0, func(v uint64) bool { return yield(trace.Event(v)) }) {
			return
		}
	}
}

// RawTraceBytes computes the varint-encoded size of the uncompressed
// trace the artifact replaces (trace magic + payload), without
// materializing it — the numerator of the compression ratio.
func (c *ChunkedWPP) RawTraceBytes() int64 {
	var n int64 = 4
	for _, ch := range c.Chunks {
		n += snapshotRawBytes(ch)
	}
	return n
}

// EncodedSize reports the total byte size of all chunk grammars (the
// artifact's dominant term; header/cost-table sizes match the monolithic
// WPP and are omitted for the size comparison this type exists for).
func (c *ChunkedWPP) EncodedSize() int64 {
	var n int64
	for _, ch := range c.Chunks {
		n += ch.EncodedSize()
	}
	return n
}

// Stats summarizes the chunked artifact.
type ChunkedStats struct {
	Chunks       int
	Events       uint64
	Rules        int
	RHSSymbols   int
	GrammarBytes int64
	PeakLiveRHS  int
}

// Stats computes the summary.
func (c *ChunkedWPP) Stats() ChunkedStats {
	st := ChunkedStats{
		Chunks:       len(c.Chunks),
		Events:       c.Events,
		GrammarBytes: c.EncodedSize(),
		PeakLiveRHS:  c.PeakLiveRHS,
	}
	for _, ch := range c.Chunks {
		st.Rules += len(ch.Rules)
		for _, rhs := range ch.Rules {
			st.RHSSymbols += len(rhs)
		}
	}
	return st
}

// PathCost returns the instruction cost of one event's acyclic path.
// Unknown events cost 0.
func (c *ChunkedWPP) PathCost(e trace.Event) uint64 { return c.costs[e] }

// DistinctPaths reports how many distinct (function, path) pairs were
// executed.
func (c *ChunkedWPP) DistinctPaths() int { return len(c.costs) }

// CostEvents returns the cost table's keys in ascending order.
func (c *ChunkedWPP) CostEvents() []trace.Event { return sortedCostEvents(c.costs) }

// Verify checks that every chunk is well formed and the expansion lengths
// add up to Events. It is VerifyParallel(1).
func (c *ChunkedWPP) Verify() error { return c.VerifyParallel(1) }

// VerifyParallel runs the per-chunk validation on the given number of
// goroutines (<=0 means runtime.GOMAXPROCS(0)). The result is
// deterministic: the error reported is always the one for the
// lowest-indexed bad chunk, whatever the schedule.
func (c *ChunkedWPP) VerifyParallel(workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(c.Chunks) {
		workers = len(c.Chunks)
	}
	errs := make([]error, len(c.Chunks))
	lens := make([]uint64, len(c.Chunks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(c.Chunks) {
					return
				}
				ch := c.Chunks[i]
				if err := ch.Validate(); err != nil {
					errs[i] = fmt.Errorf("wpp: chunk %d: %w", i, err)
					continue
				}
				if el := ch.ExpandedLen(); len(el) > 0 {
					lens[i] = el[0]
				}
			}
		}()
	}
	wg.Wait()
	var total uint64
	for i := range errs {
		if errs[i] != nil {
			return errs[i]
		}
		total += lens[i]
	}
	if total != c.Events {
		return fmt.Errorf("wpp: chunks expand to %d events, header says %d", total, c.Events)
	}
	return nil
}
