package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/interp"
	"repro/internal/obsv"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// builderWorkers is the chunked builder's pool size: one per core of
// the two-core machine the benchmark is sized for.
const builderWorkers = 2

// buildEnv runs the collection path: every WL program is compiled, run
// under path tracing, compressed online, sealed, encoded and put into
// the run's store, once per artifact kind.
type buildEnv struct {
	r   *run
	met *store.Metrics
}

func setupBuild(r *run) (workload, error) {
	for _, w := range workloads.All {
		if _, err := wlc.Compile(w.Source); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return &buildEnv{r: r, met: store.NewMetrics(obsv.NewRegistry())}, nil
}

func (e *buildEnv) close() {}

// measure reports the events taken from source to a stored artifact per
// second of pass time; the op is one artifact's whole chain, from
// compile to store put, and the aux op its seal: Finish, encode and put.
func (e *buildEnv) measure(deadline time.Time) error {
	st, done, err := e.warmStore()
	if err != nil {
		return err
	}
	defer done()
	var rates []float64
	op, seal := map[string][]float64{}, map[string][]float64{}
	err = e.r.passLoop(deadline, 2, func(int) error {
		start := time.Now()
		bs, err := e.pass(nil, 0, st)
		if err != nil {
			return err
		}
		rates = append(rates, float64(bs.events)/time.Since(start).Seconds())
		for g, d := range bs.opMs {
			op[g] = append(op[g], d)
		}
		for g, d := range bs.sealMs {
			seal[g] = append(seal[g], d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.r.setPath(rates, itemMedians(op), itemMedians(seal))
	return nil
}

// buildStats are one pass's totals.
type buildStats struct {
	events, bytes int64
	// opMs and sealMs are each artifact's chain and seal latency.
	opMs, sealMs map[string]float64
	// The rest are gathered by traced passes only.
	eventsByKind   map[string]int64
	bytesByFormat  map[string]int64
	rules, symbols int64
	appendAllocs   float64
	busy           []float64
	instrs         uint64
}

// warmStore opens a store for the run and fills it with one pass,
// checked but not measured; the returned func removes the store. The
// measured passes put into it again, so every put finds its artifact
// stored, as when a program is rebuilt, and times the hash and the
// manifest lookup. A fresh store for every pass wrote and deleted about
// a thousand object files a pass. On the shared virtual disk that churn
// slowed the whole machine for minutes: consecutive runs lost up to a
// third of their throughput, interpretation included, and the runs of
// other workloads after them slowed too. The same runs without the
// writes did not slow.
func (e *buildEnv) warmStore() (*store.Store, func(), error) {
	dir, err := os.MkdirTemp(e.r.opt.work, "build-store-")
	if err != nil {
		return nil, nil, err
	}
	done := func() { os.RemoveAll(dir) }
	st, err := store.Open(dir, e.met)
	if err == nil {
		_, err = e.pass(nil, 0, st)
	}
	if err != nil {
		done()
		return nil, nil, err
	}
	return st, done, nil
}

// pass builds the 20 artifacts into st, in an order drawn from the
// seed.
func (e *buildEnv) pass(tr *tracer, root int, st *store.Store) (*buildStats, error) {
	bs := &buildStats{
		opMs: map[string]float64{}, sealMs: map[string]float64{},
		eventsByKind: map[string]int64{}, bytesByFormat: map[string]int64{},
	}
	for _, i := range e.r.rng.Perm(len(workloads.All)) {
		w := workloads.All[i]
		for _, k := range kinds {
			e.r.op(e.buildOne(tr, root, st, w, k, bs))
		}
	}
	ref := e.r.opt.ref
	e.r.op(e.r.count("artifact_bytes", bs.bytes, ref.total(func(p *programRef) int64 {
		return p.Artifacts["wpp2"].Bytes + p.Artifacts["wpc1"].Bytes
	})))
	return bs, nil
}

// buildOne runs the chain for one artifact and checks its bytes. An
// untraced build compresses online, as a tracer would; a traced build
// buffers the events first so that interpretation and compression get
// spans of their own.
func (e *buildEnv) buildOne(tr *tracer, root int, st *store.Store, w workloads.Workload, k kind, bs *buildStats) error {
	group := w.Name + "-" + k.name
	ref := e.r.opt.ref.Workloads[w.Name]
	arg := e.r.opt.scale.Arg(w)
	parent := tr.begin(root, group, "artifact")
	defer tr.end(parent)
	start := time.Now()
	var sealStart time.Time

	sp := tr.begin(parent, group, "wlc.compile")
	prog, err := wlc.Compile(w.Source)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", group, err)
	}
	names := make([]string, len(prog.Funcs))
	for i, f := range prog.Funcs {
		names[i] = f.Name
	}
	opts := iwpp.BuildOptions{ChunkSize: k.chunk, Workers: builderWorkers}
	var a iwpp.Artifact
	var b iwpp.Builder
	if tr == nil {
		sink := &lateSink{}
		m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: sink})
		if err != nil {
			return fmt.Errorf("%s: %w", group, err)
		}
		b = iwpp.New(names, m.Numberings(), opts)
		sink.b = b
		if _, err := m.Run("main", arg); err != nil {
			b.Finish(0)
			return fmt.Errorf("%s: %w", group, err)
		}
		sealStart = time.Now()
		a = b.Finish(m.Stats().Instructions)
	} else {
		sp = tr.extra(parent, group, "interp.plain")
		plain, err := interp.New(prog, interp.Config{Mode: interp.NoTrace})
		if err == nil {
			_, err = plain.Run("main", arg)
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: plain run: %w", group, err)
		}
		bs.instrs += plain.Stats().Instructions

		buf := &trace.Buffer{Events: make([]trace.Event, 0, ref.Events)}
		sp = tr.begin(parent, group, "interp.traced")
		m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: buf})
		if err == nil {
			_, err = m.Run("main", arg)
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", group, err)
		}
		b = iwpp.New(names, m.Numberings(), opts)
		before := readRuntime()
		sp = tr.begin(parent, group, "wpp.append."+k.name)
		b.AddBatch(buf.Events)
		tr.end(sp)
		bs.appendAllocs += readRuntime().sub(before).allocObjects
		sealStart = time.Now()
		sp = tr.begin(parent, group, "wpp.finish")
		a = b.Finish(m.Stats().Instructions)
		tr.end(sp)
		if rep := b.Report(); k.chunk > 0 && rep != nil {
			bs.busy = append(bs.busy, rep.WorkerBusy...)
		}
		rules, symbols := grammarSize(a)
		bs.rules += int64(rules)
		bs.symbols += int64(symbols)
		bs.eventsByKind[k.name] += int64(a.NumEvents())
		// The other encoding of the same grammar, for its size only.
		other := iwpp.FormatV1 + iwpp.FormatV2 - k.version
		iwpp.SetVersion(a, other)
		sp = tr.extra(parent, group, "wpp.encode_other")
		enc, err := encode(a)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", group, err)
		}
		bs.bytesByFormat[formatName(k.chunk, other)] += int64(len(enc))
	}
	iwpp.SetVersion(a, k.version)
	sp = tr.begin(parent, group, "wpp.encode")
	enc, err := encode(a)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", group, err)
	}
	sp = tr.begin(parent, group, "store.put")
	h, _, err := st.PutArtifactEncoded(a, enc)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", group, err)
	}
	bs.opMs[group] = float64(time.Since(start)) / float64(time.Millisecond)
	bs.sealMs[group] = float64(time.Since(sealStart)) / float64(time.Millisecond)
	bs.events += int64(a.NumEvents())
	bs.bytes += int64(len(enc))
	bs.bytesByFormat[k.format] += int64(len(enc))
	want := ref.Artifacts[k.format].SHA256
	if err := e.r.output("build/"+group, sha(enc), want); err != nil {
		return err
	}
	if h.String() != want {
		return fmt.Errorf("%s: store hash %s, reference %s", group, h, want)
	}
	if a.NumEvents() != ref.Events {
		return fmt.Errorf("%s: %d events, reference %d", group, a.NumEvents(), ref.Events)
	}
	return nil
}

// lateSink forwards interpreter events to a builder that can only be
// made once the machine has numbered the program's paths.
type lateSink struct{ b iwpp.Builder }

func (s *lateSink) Add(e trace.Event)         { s.b.Add(e) }
func (s *lateSink) AddBatch(es []trace.Event) { s.b.AddBatch(es) }

func (e *buildEnv) measureTraced(deadline time.Time, tr *tracer) error {
	l := newLayers()
	ref := e.r.opt.ref
	// The warm-up pass fills the empty store: its objects written and
	// found already present are the store's dedup within one build of
	// the 20 artifacts.
	written, deduped := e.met.ObjectsWritten.Value(), e.met.ObjectsDeduped.Value()
	st, done, err := e.warmStore()
	if err != nil {
		return err
	}
	defer done()
	newObjs := float64(e.met.ObjectsWritten.Value() - written)
	dedup := float64(e.met.ObjectsDeduped.Value() - deduped)
	l.add("store.new_objects", "count", newObjs)
	l.add("store.dedup_ratio", "1", dedup/(newObjs+dedup))
	var last *buildStats
	err = e.r.tracedLoop(deadline, tr, func(tr *tracer, root int) error {
		bs, err := e.pass(tr, root, st)
		if err != nil {
			return err
		}
		if tr != nil {
			last = bs
		}
		return nil
	}, func(root int) {
		bs := last
		sec := func(name string) float64 { return tr.sum(root, name).Seconds() }
		plain, traced := sec("interp.plain"), sec("interp.traced")
		l.add("wlc.compile_s", "s", sec("wlc.compile"))
		l.add("interp.plain_s", "s", plain)
		l.add("interp.traced_s", "s", traced)
		l.add("interp.overhead_x", "x", traced/plain)
		l.add("interp.instrs_per_s", "1/s", float64(bs.instrs)/plain)
		for _, k := range kinds {
			l.add("wpp.append_ns_per_event."+k.name, "ns", float64(tr.sum(root, "wpp.append."+k.name))/float64(bs.eventsByKind[k.name]))
		}
		l.add("wpp.append_allocs_per_event", "1", bs.appendAllocs/float64(bs.events))
		l.add("wpp.finish_s", "s", sec("wpp.finish"))
		l.add("wpp.worker_busy_frac", "1", mean(bs.busy))
		l.add("sequitur.rules", "count", float64(bs.rules))
		l.add("sequitur.symbols_per_event", "1", float64(bs.symbols)/float64(bs.events))
		l.add("wpp.encode_s", "s", sec("wpp.encode"))
		for _, f := range []string{"wpp1", "wpp2", "wpc1", "wpc2"} {
			l.add("wpp.bytes."+f, "B", float64(bs.bytesByFormat[f]))
			e.r.op(e.r.count("wpp.bytes."+f, bs.bytesByFormat[f], ref.total(func(p *programRef) int64 { return p.Artifacts[f].Bytes })))
		}
		e.r.op(e.r.count("sequitur.rules", bs.rules, ref.total(func(p *programRef) int64 {
			return int64(p.Rules["mono"] + p.Rules["chunked"])
		})))
		e.r.op(e.r.count("interp.instructions", int64(bs.instrs), 2*ref.total(func(p *programRef) int64 { return int64(p.Instructions) })))
		l.add("store.put_s", "s", sec("store.put"))
	})
	if err != nil {
		return err
	}
	l.report(e.r)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
