package wpp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mmapio"
	"repro/internal/obsv"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wpp/codec"
)

// ArtifactView is a lazy, read-only view of an encoded artifact in any
// of the four registered formats. Opening a view parses only the header
// — magic, function table, counters, cost table — without building
// sequitur grammars, copying symbol arrays, or even walking the chunk
// region. Chunk byte regions are delimited by a one-time framing scan
// on first materialization, and chunk grammars materialize on demand
// via Chunk, each decode fully bounds-checked against the same caps as
// the eager decoders, so a corrupt artifact yields a typed error at
// materialization rather than silent garbage.
//
// A view over an in-memory buffer (NewView, OpenViewFile) holds the
// buffer for its whole lifetime; a view assembled from store parts
// (NewViewParts) loads and releases each chunk's bytes around
// materialization. Either way the header — everything an analysis needs
// before touching the trace — is decoded eagerly, so stats-style
// queries answer in O(header) instead of O(trace).
//
// Views are safe for concurrent use after opening: the deferred chunk
// index is built exactly once under a sync.Once, and materialization is
// pure (every Chunk call decodes afresh; nothing is cached or mutated).
type ArtifactView struct {
	format       string
	chunked      bool
	version      uint8
	funcs        []FuncInfo
	chunkSize    uint64
	events       uint64
	instructions uint64
	peakLiveRHS  int
	size         int64
	// dict is the v2 terminal dictionary (ascending cost-table events);
	// nil for v1, whose terminals are raw event values.
	dict  []trace.Event
	costs map[trace.Event]uint64

	// nchunks is the chunk count declared by the header (1 for the
	// monolithic formats). loads holds one loader per chunk; for
	// byte-backed views it is built lazily by chunkIndex from raw, the
	// encoded artifact starting with the header and hdrEnd, the offset
	// of the first chunk grammar. Parts-backed views set loads at
	// construction and leave raw nil.
	nchunks   int
	loads     []ChunkLoad
	raw       []byte
	hdrEnd    int
	indexOnce sync.Once
	indexErr  error

	met       ViewMetrics
	opened    time.Time
	firstOnce sync.Once
	closer    io.Closer
}

// ChunkLoad produces one chunk's encoded bytes. release (may be nil)
// is called once the bytes have been decoded; implementations backed by
// a transient mapping use it to unmap. An error is returned verbatim to
// the materializing caller wrapped in a *ViewError.
type ChunkLoad func() (data []byte, release func(), err error)

// ViewError reports a failure materializing one chunk of a view. Match
// with errors.As; Unwrap exposes the underlying decode or load error.
type ViewError struct {
	Chunk int
	Err   error
}

func (e *ViewError) Error() string { return fmt.Sprintf("wpp: view chunk %d: %v", e.Chunk, e.Err) }
func (e *ViewError) Unwrap() error { return e.Err }

// ErrMappedFault is the cause a *ViewError wraps when reading a view's
// bytes raised a memory fault: a mapped file was truncated or replaced
// underneath the view, so its pages no longer exist.
var ErrMappedFault = errors.New("wpp: memory fault reading artifact bytes (file truncated while mapped?)")

// guardFaults makes a memory fault in the calling goroutine panic
// instead of crashing the process, and turns that panic into a
// *ViewError for the chunk *chunk names, stored in *err. Every entry
// point that reads mapped bytes defers its result on entry:
//
//	defer guardFaults(&i, &err)()
//
// The goroutine's previous fault setting is restored on exit. Panics
// that are not memory faults propagate unchanged.
func guardFaults(chunk *int, err *error) func() {
	old := debug.SetPanicOnFault(true)
	return func() {
		debug.SetPanicOnFault(old)
		r := recover()
		if r == nil {
			return
		}
		fault, ok := r.(interface{ Addr() uintptr })
		if !ok {
			panic(r)
		}
		*err = &ViewError{Chunk: *chunk, Err: fmt.Errorf("%w: address %#x", ErrMappedFault, fault.Addr())}
	}
}

// ViewOptions configures NewView/NewViewParts/OpenViewFile. The zero
// value (or nil) is valid: no instrumentation, nothing to close.
type ViewOptions struct {
	// Metrics receives open-path instrumentation; nil disables it.
	Metrics *ViewMetrics
	// Closer, if non-nil, is closed by ArtifactView.Close — and by the
	// constructor itself if opening fails. Callers hand the view
	// ownership of whatever backs the data (typically an mmapio.Data).
	Closer io.Closer
}

// ViewMetrics is the open-path instrumentation hook set. Any field may
// be nil — obsv metrics are nil-safe no-ops — and a nil *ViewMetrics
// disables instrumentation entirely.
type ViewMetrics struct {
	// Opens counts views successfully opened.
	Opens *obsv.Counter
	// BytesMapped counts artifact bytes served by live memory mappings
	// (as opposed to heap copies).
	BytesMapped *obsv.Counter
	// BytesIndexed counts artifact bytes covered by index passes: the
	// header at open, plus the chunk region when the deferred boundary
	// scan runs on first materialization.
	BytesIndexed *obsv.Counter
	// ChunksMaterialized counts chunk grammars decoded on demand, and
	// MaterializedBytes the encoded bytes those decodes consumed.
	ChunksMaterialized *obsv.Counter
	MaterializedBytes  *obsv.Counter
	// IndexSeconds is the open-time index latency distribution;
	// FirstResultSeconds measures open to first materialized chunk —
	// the time-to-first-result a lazy open buys.
	IndexSeconds       *obsv.Histogram
	FirstResultSeconds *obsv.Histogram
}

// NewViewMetrics registers the standard wpp_open_* metric names on r
// and returns the hook set. A nil registry yields all-nil (no-op)
// metrics.
func NewViewMetrics(r *obsv.Registry) *ViewMetrics {
	return &ViewMetrics{
		Opens:              r.Counter("wpp_open_total"),
		BytesMapped:        r.Counter("wpp_open_bytes_mapped_total"),
		BytesIndexed:       r.Counter("wpp_open_bytes_indexed_total"),
		ChunksMaterialized: r.Counter("wpp_open_chunks_materialized_total"),
		MaterializedBytes:  r.Counter("wpp_open_chunk_bytes_total"),
		IndexSeconds:       r.Histogram("wpp_open_index_seconds", nil),
		FirstResultSeconds: r.Histogram("wpp_open_first_result_seconds", nil),
	}
}

// orNoop lets views hold a value so instrumentation sites can call
// through nil fields without checking the pointer first.
func (m *ViewMetrics) orNoop() ViewMetrics {
	if m == nil {
		return ViewMetrics{}
	}
	return *m
}

// byteReader is a bounds-checked cursor over an encoded artifact. It
// never copies: take returns subslices of the underlying data.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n == 0 {
		return 0, fmt.Errorf("wpp: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	if n < 0 {
		return 0, fmt.Errorf("wpp: reading %s: varint overflows 64 bits", what)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) take(n int, what string) ([]byte, error) {
	if len(r.data)-r.off < n {
		return nil, fmt.Errorf("wpp: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// parseFuncTable mirrors the eager decoders' function-table parse,
// including its plausibility caps. Names are copied out of the buffer
// (string conversion), so the table never retains mapped bytes.
func parseFuncTable(r *byteReader) ([]FuncInfo, error) {
	numFuncs, err := r.uvarint("function count")
	if err != nil {
		return nil, err
	}
	if numFuncs > trace.MaxFuncs {
		return nil, fmt.Errorf("wpp: implausible function count %d", numFuncs)
	}
	funcs := make([]FuncInfo, numFuncs)
	for i := range funcs {
		nameLen, err := r.uvarint("name length")
		if err != nil {
			return nil, err
		}
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("wpp: implausible name length %d", nameLen)
		}
		name, err := r.take(int(nameLen), "name")
		if err != nil {
			return nil, err
		}
		funcs[i].Name = string(name)
		if funcs[i].NumPaths, err = r.uvarint("path count"); err != nil {
			return nil, err
		}
	}
	return funcs, nil
}

// parseCostTableV1 reads a v1 cost table (absolute events, any order —
// the eager decoder accepts unsorted tables, so the view must too).
func parseCostTableV1(r *byteReader) (map[trace.Event]uint64, error) {
	numCosts, err := r.uvarint("cost count")
	if err != nil {
		return nil, err
	}
	if numCosts > 1<<32 {
		return nil, fmt.Errorf("wpp: implausible cost count %d", numCosts)
	}
	costs := make(map[trace.Event]uint64, min(numCosts, 1<<16))
	for i := uint64(0); i < numCosts; i++ {
		e, err := r.uvarint("cost event")
		if err != nil {
			return nil, err
		}
		c, err := r.uvarint("cost value")
		if err != nil {
			return nil, err
		}
		if err := trace.CheckEvent(trace.Event(e)); err != nil {
			return nil, fmt.Errorf("wpp: cost table: %w", err)
		}
		costs[trace.Event(e)] = c
	}
	return costs, nil
}

// parseCostTableV2 reads a v2 delta-encoded cost table, returning the
// reconstructed dictionary and cost map. The strict-ascent and overflow
// rejections match the eager v2 decoder.
func parseCostTableV2(r *byteReader) ([]trace.Event, map[trace.Event]uint64, error) {
	numCosts, err := r.uvarint("cost count")
	if err != nil {
		return nil, nil, err
	}
	if numCosts > 1<<32 {
		return nil, nil, fmt.Errorf("wpp: implausible cost count %d", numCosts)
	}
	costs := make(map[trace.Event]uint64, min(numCosts, 1<<16))
	dict := make([]trace.Event, 0, min(numCosts, 1<<16))
	prev := uint64(0)
	for i := uint64(0); i < numCosts; i++ {
		delta, err := r.uvarint("cost event delta")
		if err != nil {
			return nil, nil, err
		}
		v := delta
		if i > 0 {
			if delta == 0 {
				return nil, nil, fmt.Errorf("wpp: cost table entry %d repeats its predecessor", i)
			}
			var carry uint64
			v, carry = prev+delta, prev
			if v < carry {
				return nil, nil, fmt.Errorf("wpp: cost table entry %d overflows", i)
			}
		}
		c, err := r.uvarint("cost value")
		if err != nil {
			return nil, nil, err
		}
		if err := trace.CheckEvent(trace.Event(v)); err != nil {
			return nil, nil, fmt.Errorf("wpp: cost table: %w", err)
		}
		dict = append(dict, trace.Event(v))
		costs[trace.Event(v)] = c
		prev = v
	}
	return dict, costs, nil
}

// parseHeader decodes everything before the chunk grammars and returns
// the number of chunks that follow (1 for the monolithic formats, whose
// single grammar is modeled as one chunk).
func (v *ArtifactView) parseHeader(r *byteReader) (int, error) {
	mb, err := r.take(4, "magic")
	if err != nil {
		return 0, err
	}
	var m [4]byte
	copy(m[:], mb)
	switch m {
	case wppMagic:
		v.version = FormatV1
	case wpp2Magic:
		v.version = FormatV2
	case chunkedMagic:
		v.version, v.chunked = FormatV1, true
	case chunked2Magic:
		v.version, v.chunked = FormatV2, true
	default:
		return 0, fmt.Errorf("wpp: bad magic %q", mb)
	}
	if f, ok := codec.Lookup(m); ok {
		v.format = f.Name
	} else {
		v.format = string(m[:])
	}
	if v.funcs, err = parseFuncTable(r); err != nil {
		return 0, err
	}
	if v.chunked {
		if v.chunkSize, err = r.uvarint("chunk size"); err != nil {
			return 0, err
		}
		if v.chunkSize == 0 {
			return 0, fmt.Errorf("wpp: chunk size 0")
		}
	}
	if v.events, err = r.uvarint("event count"); err != nil {
		return 0, err
	}
	if v.instructions, err = r.uvarint("instruction count"); err != nil {
		return 0, err
	}
	if v.chunked {
		peak, err := r.uvarint("peak live RHS")
		if err != nil {
			return 0, err
		}
		if peak > 1<<40 {
			return 0, fmt.Errorf("wpp: implausible peak live RHS %d", peak)
		}
		v.peakLiveRHS = int(peak)
	}
	if v.version >= FormatV2 {
		if v.dict, v.costs, err = parseCostTableV2(r); err != nil {
			return 0, err
		}
	} else if v.costs, err = parseCostTableV1(r); err != nil {
		return 0, err
	}
	if !v.chunked {
		return 1, nil
	}
	numChunks, err := r.uvarint("chunk count")
	if err != nil {
		return 0, err
	}
	if numChunks > 1<<32 {
		return 0, fmt.Errorf("wpp: implausible chunk count %d", numChunks)
	}
	return int(numChunks), nil
}

var sqgMagic = [4]byte{'S', 'Q', 'G', '1'}

// maxViewRules mirrors the eager snapshot decoder's rule/RHS cap.
const maxViewRules = 1 << 31

// scanSnapshot advances r over one encoded sequitur snapshot without
// building it. The framing and plausibility caps match sequitur.Decode;
// rule-reference range checks are deferred to materialization, where
// the full decode enforces them.
func scanSnapshot(r *byteReader) error {
	mb, err := r.take(4, "snapshot magic")
	if err != nil {
		return fmt.Errorf("sequitur: reading magic: %w", io.ErrUnexpectedEOF)
	}
	var m [4]byte
	copy(m[:], mb)
	if m != sqgMagic {
		return fmt.Errorf("sequitur: bad magic %q", mb)
	}
	numRules, err := r.uvarint("rule count")
	if err != nil {
		return fmt.Errorf("sequitur: reading rule count: %w", io.ErrUnexpectedEOF)
	}
	if numRules > maxViewRules {
		return fmt.Errorf("sequitur: implausible rule count %d", numRules)
	}
	for i := uint64(0); i < numRules; i++ {
		rhsLen, err := r.uvarint("rule length")
		if err != nil {
			return fmt.Errorf("sequitur: rule %d: reading length: %w", i, io.ErrUnexpectedEOF)
		}
		if rhsLen > maxViewRules {
			return fmt.Errorf("sequitur: rule %d: implausible length %d", i, rhsLen)
		}
		for j := uint64(0); j < rhsLen; j++ {
			if _, err := r.uvarint("symbol"); err != nil {
				return fmt.Errorf("sequitur: rule %d sym %d: %w", i, j, io.ErrUnexpectedEOF)
			}
		}
	}
	return nil
}

// decodeSnapshot builds a snapshot from one chunk's exact byte region.
// It mirrors sequitur.Decode — same caps, same rule-reference range
// check — plus an exact-consumption check, since a view knows each
// chunk's boundary where the streaming decoder does not.
func decodeSnapshot(data []byte) (*sequitur.Snapshot, error) {
	r := &byteReader{data: data}
	mb, err := r.take(4, "snapshot magic")
	if err != nil {
		return nil, fmt.Errorf("sequitur: reading magic: %w", io.ErrUnexpectedEOF)
	}
	var m [4]byte
	copy(m[:], mb)
	if m != sqgMagic {
		return nil, fmt.Errorf("sequitur: bad magic %q", mb)
	}
	numRules, err := r.uvarint("rule count")
	if err != nil {
		return nil, fmt.Errorf("sequitur: reading rule count: %w", io.ErrUnexpectedEOF)
	}
	if numRules > maxViewRules {
		return nil, fmt.Errorf("sequitur: implausible rule count %d", numRules)
	}
	sn := &sequitur.Snapshot{Rules: make([][]sequitur.Sym, 0, min(numRules, 1<<16))}
	for i := uint64(0); i < numRules; i++ {
		rhsLen, err := r.uvarint("rule length")
		if err != nil {
			return nil, fmt.Errorf("sequitur: rule %d: reading length: %w", i, io.ErrUnexpectedEOF)
		}
		if rhsLen > maxViewRules {
			return nil, fmt.Errorf("sequitur: rule %d: implausible length %d", i, rhsLen)
		}
		rhs := make([]sequitur.Sym, 0, min(rhsLen, 1<<16))
		for j := uint64(0); j < rhsLen; j++ {
			s, err := r.uvarint("symbol")
			if err != nil {
				return nil, fmt.Errorf("sequitur: rule %d sym %d: %w", i, j, io.ErrUnexpectedEOF)
			}
			if s&1 == 1 {
				ri := s >> 1
				if ri >= numRules {
					return nil, fmt.Errorf("sequitur: rule %d sym %d: rule reference %d out of range", i, j, ri)
				}
				rhs = append(rhs, sequitur.Sym{Rule: int32(ri)})
			} else {
				rhs = append(rhs, sequitur.Sym{Rule: -1, Value: s >> 1})
			}
		}
		sn.Rules = append(sn.Rules, rhs)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("sequitur: %d trailing bytes after snapshot", len(data)-r.off)
	}
	return sn, nil
}

// NewView indexes an encoded artifact held in memory. Only the header
// is parsed here; the chunk region is delimited lazily, so an open
// followed by header queries never touches the trace bytes at all. The
// view takes ownership of opts.Closer — closing it on failure, and on
// ArtifactView.Close otherwise — and retains data for its lifetime;
// chunk decodes read straight from the buffer.
func NewView(data []byte, opts *ViewOptions) (*ArtifactView, error) {
	var o ViewOptions
	if opts != nil {
		o = *opts
	}
	v := &ArtifactView{met: o.Metrics.orNoop(), closer: o.Closer, opened: time.Now()}
	fail := func(err error) (*ArtifactView, error) {
		if v.closer != nil {
			v.closer.Close()
		}
		return nil, err
	}
	start := time.Now()
	r := &byteReader{data: data}
	numChunks, err := v.parseMappedHeader(r)
	if err != nil {
		return fail(err)
	}
	v.nchunks = numChunks
	v.raw = data
	v.hdrEnd = r.off
	v.size = int64(len(data))
	v.met.Opens.Inc()
	v.met.BytesIndexed.Add(uint64(r.off))
	v.met.IndexSeconds.Observe(time.Since(start))
	return v, nil
}

// parseMappedHeader is parseHeader over bytes that may be mapped: a
// memory fault surfaces as an error naming chunk 0.
func (v *ArtifactView) parseMappedHeader(r *byteReader) (n int, err error) {
	chunk := 0
	defer guardFaults(&chunk, &err)()
	return v.parseHeader(r)
}

// chunkIndex returns the per-chunk loaders. For byte-backed views the
// chunk boundaries are delimited here by a framing scan that runs
// exactly once, on first use — keeping the open path O(header); framing
// corruption discovered by the scan surfaces as a *ViewError naming the
// offending chunk on this and every later access. Parts-backed views
// were indexed at construction and return immediately.
func (v *ArtifactView) chunkIndex() ([]ChunkLoad, error) {
	v.indexOnce.Do(func() {
		if v.raw != nil {
			v.indexErr = v.scanChunks()
		}
	})
	return v.loads, v.indexErr
}

// scanChunks is the framing scan behind chunkIndex: it delimits every
// chunk's byte region in raw and installs the loaders.
func (v *ArtifactView) scanChunks() (err error) {
	i := 0
	defer guardFaults(&i, &err)()
	r := &byteReader{data: v.raw, off: v.hdrEnd}
	loads := make([]ChunkLoad, 0, min(v.nchunks, 1<<16))
	for ; i < v.nchunks; i++ {
		segStart := r.off
		if err := scanSnapshot(r); err != nil {
			return &ViewError{Chunk: i, Err: err}
		}
		seg := v.raw[segStart:r.off]
		loads = append(loads, func() ([]byte, func(), error) { return seg, nil, nil })
	}
	// Trailing bytes after the last chunk are tolerated, as with the
	// eager streaming decoders; the artifact ends where its grammar
	// does.
	v.loads = loads
	v.met.BytesIndexed.Add(uint64(r.off - v.hdrEnd))
	return nil
}

// NewViewParts assembles a view from a chunked artifact stored as
// separate parts: the header bytes (everything before the first chunk
// grammar, as split by EncodeParts) plus one ChunkLoad per chunk.
// totalSize is the whole artifact's encoded size. The header must
// declare exactly len(chunks) chunks and be fully consumed by the
// parse. Chunk bytes are loaded — and verified, if the loader verifies
// — only at materialization.
func NewViewParts(header []byte, chunks []ChunkLoad, totalSize int64, opts *ViewOptions) (*ArtifactView, error) {
	var o ViewOptions
	if opts != nil {
		o = *opts
	}
	v := &ArtifactView{met: o.Metrics.orNoop(), closer: o.Closer, opened: time.Now()}
	fail := func(err error) (*ArtifactView, error) {
		if v.closer != nil {
			v.closer.Close()
		}
		return nil, err
	}
	start := time.Now()
	r := &byteReader{data: header}
	numChunks, err := v.parseHeader(r)
	if err != nil {
		return fail(err)
	}
	if !v.chunked {
		return fail(fmt.Errorf("wpp: %s artifact cannot be opened from parts", v.format))
	}
	if r.off != len(header) {
		return fail(fmt.Errorf("wpp: chunked header has %d trailing bytes", len(header)-r.off))
	}
	if numChunks != len(chunks) {
		return fail(fmt.Errorf("wpp: header declares %d chunks, have %d parts", numChunks, len(chunks)))
	}
	v.nchunks = len(chunks)
	v.loads = chunks
	v.size = totalSize
	v.met.Opens.Inc()
	v.met.BytesIndexed.Add(uint64(len(header)))
	v.met.IndexSeconds.Observe(time.Since(start))
	return v, nil
}

// OpenViewFile opens an artifact file as a lazy view, memory-mapping it
// where the platform supports that. The returned view owns the mapping;
// Close releases it.
func OpenViewFile(path string, opts *ViewOptions) (*ArtifactView, error) {
	var o ViewOptions
	if opts != nil {
		o = *opts
	}
	d, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	if d.Mapped() {
		o.Metrics.orNoop().BytesMapped.Add(uint64(d.Len()))
	}
	o.Closer = d
	return NewView(d.Bytes(), &o)
}

// Format is the registered display name of the format that was indexed
// (e.g. "chunked WPP v2").
func (v *ArtifactView) Format() string { return v.format }

// Chunked reports whether the artifact is a chunked container. A
// monolithic artifact presents its single grammar as chunk 0.
func (v *ArtifactView) Chunked() bool { return v.chunked }

// Version is the artifact format version (FormatV1 or FormatV2).
func (v *ArtifactView) Version() uint8 { return v.version }

// FuncTable lists the traced functions, indexed by function ID.
func (v *ArtifactView) FuncTable() []FuncInfo { return v.funcs }

// NumEvents is the trace length (number of acyclic path events).
func (v *ArtifactView) NumEvents() uint64 { return v.events }

// TotalInstructions is the executed IR instruction count.
func (v *ArtifactView) TotalInstructions() uint64 { return v.instructions }

// ChunkSize is the chunked container's events-per-chunk (0 for
// monolithic artifacts).
func (v *ArtifactView) ChunkSize() uint64 { return v.chunkSize }

// PeakLiveRHS is the chunked builder's high-water live-symbol mark (0
// for monolithic artifacts).
func (v *ArtifactView) PeakLiveRHS() int { return v.peakLiveRHS }

// NumChunks reports the number of chunk grammars (1 for monolithic
// artifacts).
func (v *ArtifactView) NumChunks() int { return v.nchunks }

// Size is the encoded size of the artifact in bytes.
func (v *ArtifactView) Size() int64 { return v.size }

// DistinctPaths reports how many distinct (function, path) pairs were
// executed.
func (v *ArtifactView) DistinctPaths() int { return len(v.costs) }

// PathCost returns the instruction cost of one event's acyclic path;
// unknown events cost 0.
func (v *ArtifactView) PathCost(e trace.Event) uint64 { return v.costs[e] }

// CostEvents returns the cost table's keys in ascending order.
func (v *ArtifactView) CostEvents() []trace.Event {
	if v.dict != nil {
		out := make([]trace.Event, len(v.dict))
		copy(out, v.dict)
		return out
	}
	return sortedCostEvents(v.costs)
}

// Close releases whatever backs the view (the memory mapping for
// OpenViewFile views). The view must not be used afterwards.
func (v *ArtifactView) Close() error {
	if v.closer != nil {
		return v.closer.Close()
	}
	return nil
}

// Chunk materializes chunk i's grammar: load bytes, decode with full
// bounds checks, release the bytes, and (for v2) rewrite terminal ranks
// back to event values against the artifact's dictionary. Every call
// decodes afresh; the returned snapshot shares nothing with the view's
// backing bytes and stays valid after Close. A memory fault while
// reading the bytes (a mapped file truncated underneath the view) is
// returned as a *ViewError wrapping ErrMappedFault.
func (v *ArtifactView) Chunk(i int) (_ *sequitur.Snapshot, err error) {
	defer guardFaults(&i, &err)()
	if i < 0 || i >= v.nchunks {
		return nil, &ViewError{Chunk: i, Err: fmt.Errorf("wpp: chunk index out of range (%d chunks)", v.nchunks)}
	}
	loads, err := v.chunkIndex()
	if err != nil {
		return nil, err
	}
	data, release, err := loads[i]()
	if err != nil {
		return nil, &ViewError{Chunk: i, Err: err}
	}
	n := len(data)
	sn, derr := func() (*sequitur.Snapshot, error) {
		if release != nil {
			defer release() // also when the decode faults
		}
		return decodeSnapshot(data)
	}()
	if derr != nil {
		return nil, &ViewError{Chunk: i, Err: derr}
	}
	if v.dict != nil {
		if err := unrankSnapshot(sn, v.dict); err != nil {
			return nil, &ViewError{Chunk: i, Err: err}
		}
	}
	v.met.ChunksMaterialized.Inc()
	v.met.MaterializedBytes.Add(uint64(n))
	v.firstOnce.Do(func() { v.met.FirstResultSeconds.Observe(time.Since(v.opened)) })
	return sn, nil
}

// Walk yields the full event trace in order, materializing one chunk at
// a time, stopping early if yield returns false. Unlike the eager
// artifacts' Walk it can fail: a corrupt chunk surfaces as a *ViewError
// instead of being undecodable at open time.
func (v *ArtifactView) Walk(yield func(trace.Event) bool) (err error) {
	i := 0
	defer guardFaults(&i, &err)()
	for ; i < v.nchunks; i++ {
		sn, err := v.Chunk(i)
		if err != nil {
			return err
		}
		if len(sn.Rules) == 0 {
			continue
		}
		if !sn.Expand(0, func(val uint64) bool { return yield(trace.Event(val)) }) {
			return nil
		}
	}
	return nil
}

// eachChunk materializes every chunk across a worker pool, invoking fn
// per chunk. Errors are deterministic: the one reported is always for
// the lowest-indexed failing chunk, whatever the schedule. fn must be
// safe for concurrent calls on distinct i.
func (v *ArtifactView) eachChunk(workers int, fn func(i int, sn *sequitur.Snapshot) error) error {
	n := v.nchunks
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
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
				sn, err := v.Chunk(i)
				if err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i, sn)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Verify checks the view's artifact for internal consistency, applying
// exactly the checks the eager artifact's Verify would: for monolithic
// views, grammar validity, expansion length against the header, and
// per-event function range and cost presence; for chunked views,
// per-chunk grammar validity and the total expansion length. workers
// sizes the chunk pool (<=0 means GOMAXPROCS; monolithic views have one
// chunk and verify sequentially).
func (v *ArtifactView) Verify(workers int) error {
	if v.chunked {
		return v.verifyChunked(workers)
	}
	return v.verifyMono()
}

func (v *ArtifactView) verifyMono() error {
	sn, err := v.Chunk(0)
	if err != nil {
		return err
	}
	if err := sn.Validate(); err != nil {
		return err
	}
	lens := sn.ExpandedLen()
	if len(lens) > 0 && lens[0] != v.events {
		return fmt.Errorf("wpp: grammar expands to %d events, header says %d", lens[0], v.events)
	}
	if len(lens) == 0 && v.events != 0 {
		return fmt.Errorf("wpp: empty grammar but %d events", v.events)
	}
	// The eager Verify walks the expansion checking every event; the
	// expansion's event set is exactly the terminals of rules reachable
	// from the start rule, so checking those accepts the same artifacts
	// in grammar time rather than trace time.
	if len(sn.Rules) == 0 {
		return nil
	}
	reach := make([]bool, len(sn.Rules))
	var visit func(int)
	visit = func(i int) {
		if reach[i] {
			return
		}
		reach[i] = true
		for _, s := range sn.Rules[i] {
			if s.IsRule() {
				visit(int(s.Rule))
			}
		}
	}
	visit(0)
	for i, rhs := range sn.Rules {
		if !reach[i] {
			continue
		}
		for _, s := range rhs {
			if s.IsRule() {
				continue
			}
			e := trace.Event(s.Value)
			if int(e.Func()) >= len(v.funcs) {
				return fmt.Errorf("wpp: event %v references unknown function", e)
			}
			if _, ok := v.costs[e]; !ok {
				return fmt.Errorf("wpp: event %v has no recorded cost", e)
			}
		}
	}
	return nil
}

func (v *ArtifactView) verifyChunked(workers int) error {
	lens := make([]uint64, v.nchunks)
	err := v.eachChunk(workers, func(i int, sn *sequitur.Snapshot) error {
		if err := sn.Validate(); err != nil {
			return fmt.Errorf("wpp: chunk %d: %w", i, err)
		}
		if el := sn.ExpandedLen(); len(el) > 0 {
			lens[i] = el[0]
		}
		return nil
	})
	if err != nil {
		return err
	}
	var total uint64
	for _, l := range lens {
		total += l
	}
	if total != v.events {
		return fmt.Errorf("wpp: chunks expand to %d events, header says %d", total, v.events)
	}
	return nil
}

// ViewSummary aggregates the grammar-shape statistics that require
// materializing chunks: rule and symbol counts, the canonical encoded
// size of the grammars (terminals as event values, the figure the eager
// Stats report for both format versions), and the varint size of the
// uncompressed trace the artifact replaces.
type ViewSummary struct {
	Rules      int
	RHSSymbols int
	// GrammarBytes is the canonical (v1, unranked) encoded size of the
	// grammars alone.
	GrammarBytes int64
	// RawTraceBytes is the size of the uncompressed varint trace the
	// grammars replace (including the trace magic).
	RawTraceBytes int64
}

// Summarize materializes every chunk across a worker pool and
// aggregates grammar statistics, matching the eager artifacts' Stats
// figures field for field.
func (v *ArtifactView) Summarize(workers int) (*ViewSummary, error) {
	type acc struct {
		rules, syms int
		grammar     int64
		raw         int64
	}
	per := make([]acc, v.nchunks)
	err := v.eachChunk(workers, func(i int, sn *sequitur.Snapshot) error {
		a := acc{rules: len(sn.Rules), grammar: sn.EncodedSize(), raw: snapshotRawBytes(sn)}
		for _, rhs := range sn.Rules {
			a.syms += len(rhs)
		}
		per[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := &ViewSummary{RawTraceBytes: 4} // trace magic
	for _, a := range per {
		s.Rules += a.rules
		s.RHSSymbols += a.syms
		s.GrammarBytes += a.grammar
		s.RawTraceBytes += a.raw
	}
	return s, nil
}

// copyCosts clones the view's cost table for a materialized artifact,
// so the artifact stays independent of the view.
func (v *ArtifactView) copyCosts() map[trace.Event]uint64 {
	costs := make(map[trace.Event]uint64, len(v.costs))
	for e, c := range v.costs {
		costs[e] = c
	}
	return costs
}

// WPP materializes the whole monolithic artifact. The result is
// identical to eagerly decoding the original bytes — it re-encodes
// byte-for-byte.
func (v *ArtifactView) WPP() (*WPP, error) {
	if v.chunked {
		return nil, fmt.Errorf("wpp: view is a %s; use ChunkedWPP", v.format)
	}
	sn, err := v.Chunk(0)
	if err != nil {
		return nil, err
	}
	return &WPP{
		Funcs:        v.funcs,
		Grammar:      sn,
		Events:       v.events,
		Instructions: v.instructions,
		Version:      v.version,
		costs:        v.copyCosts(),
	}, nil
}

// ChunkedWPP materializes the whole chunked artifact. The result is
// identical to eagerly decoding the original bytes — it re-encodes
// byte-for-byte.
func (v *ArtifactView) ChunkedWPP() (*ChunkedWPP, error) {
	if !v.chunked {
		return nil, fmt.Errorf("wpp: view is a %s; use WPP", v.format)
	}
	chunks := make([]*sequitur.Snapshot, v.nchunks)
	err := v.eachChunk(0, func(i int, sn *sequitur.Snapshot) error {
		chunks[i] = sn
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ChunkedWPP{
		Funcs:        v.funcs,
		Chunks:       chunks,
		ChunkSize:    v.chunkSize,
		Events:       v.events,
		Instructions: v.instructions,
		PeakLiveRHS:  v.peakLiveRHS,
		Version:      v.version,
		costs:        v.copyCosts(),
	}, nil
}

// Materialize fully decodes the viewed artifact, whichever container it
// is.
func (v *ArtifactView) Materialize() (Artifact, error) {
	if v.chunked {
		return v.ChunkedWPP()
	}
	return v.WPP()
}
