package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/hotpath"
	"repro/internal/sequitur"
	"repro/internal/store"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// hotChunked names the programs whose chunked artifacts join the hot
// query set: the two largest traces, where boundary windows cost the
// most. The other chunked hot queries are left out to fit the run.
var hotChunked = map[string]bool{"bfs": true, "expr": true}

// An untimed run repeats hot queries, outside the hot-set time and
// checked:
//   - Every monolithic query whose trace has fewer than cheapWindows
//     distinct windows runs repeats more times, one or two repeats
//     after each hot query of the first set. A run holds one hot set,
//     so each query had one latency sample, and the queries around the
//     median take 0.3–0.5 s: a second of background load moved
//     op_p50_ms by half. With three samples, taken seconds apart, a
//     query's latency is their median. The search's cost follows the
//     distinct windows it counts: bfs (436 k windows, ~1 s) is the
//     costliest query repeated and sort (1.05 M, ~1.7 s) the cheapest
//     not repeated.
//   - The chunked bfs query, which holds the largest working set, runs
//     once more after the hot sets while the heap is collected every
//     heapProbeGC. At the program's own GC cycles the live heap it was
//     seen to reach depended on where its last cycle fell, 600 to 830
//     MB over runs of one binary; with a cycle every 50 ms the probe
//     read 790 to 830 MB, the rest being how the two workers' maps
//     overlap in time.
const (
	repeats      = 2
	cheapWindows = 500_000
	heapProbeGC  = 50 * time.Millisecond
)

// queryEnv runs the analysis path over the 20 artifacts, stored once
// during setup and opened by hash on every query.
type queryEnv struct {
	r   *run
	dir string
	st  *store.Store
	// hashes[kind][program] is the stored artifact.
	hashes map[string]map[string]store.Hash
	// hotMs and lookupMs collect the untraced run's latencies: each hot
	// query's open and search by artifact, and each program's lookups.
	hotMs, lookupMs map[string][]float64
}

func setupQuery(r *run) (workload, error) {
	caps, err := captureAll(r.opt.scale)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.opt.work, "query-store-")
	if err != nil {
		return nil, err
	}
	e := &queryEnv{r: r, dir: dir, hashes: map[string]map[string]store.Hash{}}
	if e.st, err = store.Open(dir, nil); err != nil {
		e.close()
		return nil, err
	}
	for _, k := range kinds {
		e.hashes[k.name] = map[string]store.Hash{}
		for _, c := range caps {
			name := c.Workload.Name
			a := batchBuild(c, k, builderWorkers)
			enc, err := encode(a)
			if err != nil {
				e.close()
				return nil, err
			}
			h, _, err := e.st.PutArtifactEncoded(a, enc)
			if err != nil {
				e.close()
				return nil, err
			}
			e.hashes[k.name][name] = h
			want := r.opt.ref.Workloads[name].Artifacts[k.format].SHA256
			r.op(r.output("corpus/"+name+"-"+k.name, h.String(), want))
		}
	}
	return e, nil
}

func (e *queryEnv) close() { os.RemoveAll(e.dir) }

// measure runs hot sets until the deadline, at least one; one set takes
// about 20 s at medium scale on two cores, so a 20 s run measures one.
// events_per_s is the events of the hot set's artifacts over the set's
// open and search time, the op is one hot query, and the aux op one
// program's lookups. A lookup set runs after every hot query, outside
// the hot timing. It takes well under a second, so spreading its
// samples over the whole run keeps a few seconds of background load
// from setting its median.
func (e *queryEnv) measure(deadline time.Time) error {
	var rates []float64
	var events int64
	for _, it := range e.hotItems() {
		events += int64(e.r.opt.ref.Workloads[it.prog].Events)
	}
	e.hotMs, e.lookupMs = map[string][]float64{}, map[string][]float64{}
	var cheap, again []hotItem
	for _, it := range e.hotItems() {
		if it.kind.chunk == 0 && e.r.opt.ref.Workloads[it.prog].DistinctWindows < cheapWindows {
			cheap = append(cheap, it)
		}
	}
	for range repeats {
		for _, i := range e.r.rng.Perm(len(cheap)) {
			again = append(again, cheap[i])
		}
	}
	// After the k-th hot query of the first set, the first k/n of the
	// repeats have run.
	n, queries, done := len(e.hotItems()), 0, 0
	e.r.passLoop(deadline, 1, func(int) error {
		d := e.hotSet(nil, 0, nil, func() {
			runtime.GC()
			e.lookupSet(nil, 0)
			queries++
			for ; done < len(again) && done < queries*len(again)/n; done++ {
				e.repeat(again[done], 0)
			}
		})
		rates = append(rates, float64(events)/d.Seconds())
		return nil
	})
	e.repeat(hotItem{"bfs", kinds[1]}, heapProbeGC)
	e.r.setPath(rates, itemMedians(e.hotMs), itemMedians(e.lookupMs))
	return nil
}

// repeat runs one hot query again from a collected heap, checks its
// result and raises the run's peak live heap to what the query, and
// whatever ran since the last reading, reached.
// With gcEvery 0 its time joins the query's latency samples; otherwise
// the heap is also collected every gcEvery while it runs, which
// stretches its time, so the time is not kept.
func (e *queryEnv) repeat(it hotItem, gcEvery time.Duration) {
	runtime.GC()
	var stop func()
	if gcEvery > 0 {
		stop = collectEvery(gcEvery)
	}
	start := time.Now()
	v, err := e.st.OpenView(e.hashes[it.kind.name][it.prog], nil)
	if err == nil {
		var subs []hotpath.Subpath
		subs, err = hotpath.FindView(v, hotOpts, builderWorkers)
		d := time.Since(start)
		v.Close()
		if err == nil && stop == nil {
			e.hotMs[it.label()] = append(e.hotMs[it.label()], float64(d)/float64(time.Millisecond))
		}
		if err == nil {
			err = e.r.output("hot/"+it.label(), digestSubpaths(subs), e.r.opt.ref.Workloads[it.prog].HotSHA256)
		}
	}
	if stop != nil {
		stop()
	}
	e.r.peakHeap = max(e.r.peakHeap, e.r.heap.take())
	e.r.op(err)
}

// collectEvery runs a GC cycle every d until the returned func is
// called; the func returns once the collecting goroutine has ended.
func collectEvery(d time.Duration) func() {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				runtime.GC()
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// hotItem is one query of the hot set.
type hotItem struct {
	prog string
	kind kind
}

func (it hotItem) label() string { return it.prog + "-" + it.kind.name }

func (e *queryEnv) hotItems() []hotItem {
	var items []hotItem
	for _, name := range workloads.Names() {
		for _, k := range kinds {
			if k.chunk == 0 || hotChunked[name] {
				items = append(items, hotItem{name, k})
			}
		}
	}
	return items
}

// hotLayers collects what a traced hot set measures beyond its spans.
type hotLayers struct {
	findTime    map[string]time.Duration // FindView alone, by hot item label
	scanTime    map[string]time.Duration // by program
	findAllocs  float64
	subpaths    int64
	windows     int64
	materialize int64
}

// hotSet opens every artifact of the hot set and runs FindView on it,
// in an order drawn from the seed, calling after (if non-nil) after each
// query. It returns the time spent in opens and searches only: the heap
// is collected before each query, outside the timing, so that one
// query's garbage does not pace the next.
func (e *queryEnv) hotSet(tr *tracer, root int, hl *hotLayers, after func()) time.Duration {
	items := e.hotItems()
	var total time.Duration
	for _, i := range e.r.rng.Perm(len(items)) {
		it := items[i]
		label := it.label()
		ref := e.r.opt.ref.Workloads[it.prog]
		runtime.GC()
		parent := tr.begin(root, label, "query")
		before := readRuntime()
		start := time.Now()
		sp := tr.begin(parent, label, "store.open_view")
		v, err := e.st.OpenView(e.hashes[it.kind.name][it.prog], nil)
		tr.end(sp)
		if err != nil {
			tr.end(parent)
			e.r.op(err)
			continue
		}
		sp = tr.begin(parent, label, "hotpath.find")
		findStart := time.Now()
		subs, err := hotpath.FindView(v, hotOpts, builderWorkers)
		find := time.Since(findStart)
		tr.end(sp)
		d := time.Since(start)
		allocs := readRuntime().sub(before).allocBytes
		total += d
		if e.hotMs != nil {
			e.hotMs[label] = append(e.hotMs[label], float64(d)/float64(time.Millisecond))
		}
		if err == nil {
			err = e.r.output("hot/"+label, digestSubpaths(subs), ref.HotSHA256)
		}
		if hl != nil && err == nil {
			hl.findAllocs += allocs
			hl.findTime[label] = find
			hl.subpaths += int64(len(subs))
			err = e.engineDirect(tr, parent, label, v, ref, hl)
			if err == nil && it.kind.chunk == 0 {
				err = e.scan(tr, parent, label, v, ref, hl, it.prog)
			}
		}
		v.Close()
		tr.end(parent)
		e.r.op(err)
		if after != nil {
			after()
		}
	}
	return total
}

// engineDirect repeats the search's layers one by one on the view —
// chunk materialization, per-grammar analysis, window counting and
// boundary windows — and checks the distinct-window count.
func (e *queryEnv) engineDirect(tr *tracer, parent int, label string, v *iwpp.ArtifactView, ref *programRef, hl *hotLayers) error {
	sp := tr.extra(parent, label, "wpp.materialize")
	snaps := make([]*sequitur.Snapshot, v.NumChunks())
	var err error
	for i := range snaps {
		if snaps[i], err = v.Chunk(i); err != nil {
			break
		}
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	hl.materialize += v.Size()
	sp = tr.extra(parent, label, "engine.analysis")
	as := make([]*engine.Analysis, len(snaps))
	for i, s := range snaps {
		as[i] = engine.NewAnalysis(s)
	}
	tr.end(sp)
	var bounds []engine.Boundary
	if len(as) > 1 {
		sp = tr.extra(parent, label, "engine.crossing_windows")
		for _, a := range as {
			bounds = append(bounds, a.Boundary(hotOpts.MaxLen-1))
		}
		tr.end(sp)
	}
	var distinct int64
	key := make([]byte, 0, 8*hotOpts.MaxLen)
	for l := hotOpts.MinLen; l <= hotOpts.MaxLen; l++ {
		counts := map[string]uint64{}
		sp = tr.extra(parent, label, "engine.count_windows")
		for _, a := range as {
			a.CountWindows(l, counts)
		}
		tr.end(sp)
		if bounds != nil {
			sp = tr.extra(parent, label, "engine.crossing_windows")
			engine.CrossingWindows(bounds, l, func(w []uint64) {
				key = engine.AppendKey(key[:0], w)
				counts[string(key)]++
			})
			tr.end(sp)
		}
		distinct += int64(len(counts))
	}
	if len(as) == 1 {
		hl.windows += distinct
	}
	return e.r.count("windows/"+label, distinct, int64(ref.DistinctWindows))
}

// scan runs the decompress-and-scan search on a monolithic view, the
// paper's E6 baseline.
func (e *queryEnv) scan(tr *tracer, parent int, label string, v *iwpp.ArtifactView, ref *programRef, hl *hotLayers, prog string) error {
	sp := tr.extra(parent, label, "wpp.decode")
	w, err := v.WPP()
	runtime.GC()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.extra(parent, label, "hotpath.scan")
	start := time.Now()
	subs, err := hotpath.FindByScan(w, hotOpts)
	hl.scanTime[prog] = time.Since(start)
	tr.end(sp)
	if err != nil {
		return err
	}
	if got := digestSubpaths(subs); got != ref.HotSHA256 {
		return fmt.Errorf("scan/%s: got %.16s, reference %.16s", label, got, ref.HotSHA256)
	}
	return nil
}

// lookupSet runs the header, frequency, profile and spectra queries on
// all 20 artifacts, one program at a time in an order drawn from the
// seed.
func (e *queryEnv) lookupSet(tr *tracer, root int) {
	names := workloads.Names()
	for _, i := range e.r.rng.Perm(len(names)) {
		name := names[i]
		ref := e.r.opt.ref.Workloads[name]
		start := time.Now()
		parent := tr.begin(root, name, "lookup")
		var views []*iwpp.ArtifactView
		for _, k := range kinds {
			label := name + "-" + k.name
			sp := tr.begin(parent, label, "store.open_view")
			v, err := e.st.OpenView(e.hashes[k.name][name], nil)
			tr.end(sp)
			e.r.op(err)
			if err != nil {
				continue
			}
			views = append(views, v)
			e.r.op(e.lookupOne(tr, parent, label, v, k, ref))
		}
		if len(views) == 2 {
			sp := tr.begin(parent, name, "hotpath.spectra")
			diff, err := hotpath.CompareSpectraView(views[0], views[1], builderWorkers)
			tr.end(sp)
			if err == nil && (len(diff.Entries) != 0 || diff.SharedPaths != ref.DistinctPaths || diff.TotalPaths != ref.DistinctPaths) {
				err = fmt.Errorf("spectra/%s: %d differing paths, %d/%d shared, reference %d paths",
					name, len(diff.Entries), diff.SharedPaths, diff.TotalPaths, ref.DistinctPaths)
			}
			e.r.op(err)
		}
		for _, v := range views {
			v.Close()
		}
		tr.end(parent)
		if e.lookupMs != nil {
			e.lookupMs[name] = append(e.lookupMs[name], float64(time.Since(start))/float64(time.Millisecond))
		}
	}
}

// lookupOne checks one view's header and runs its frequency and profile
// folds.
func (e *queryEnv) lookupOne(tr *tracer, parent int, label string, v *iwpp.ArtifactView, k kind, ref *programRef) error {
	art := ref.Artifacts[k.format]
	if v.NumEvents() != ref.Events || v.TotalInstructions() != ref.Instructions ||
		v.DistinctPaths() != ref.DistinctPaths || v.Size() != art.Bytes || v.Chunked() != (k.chunk > 0) {
		return fmt.Errorf("header/%s: %d events, %d instructions, %d paths, %d bytes; reference %d, %d, %d, %d",
			label, v.NumEvents(), v.TotalInstructions(), v.DistinctPaths(), v.Size(),
			ref.Events, ref.Instructions, ref.DistinctPaths, art.Bytes)
	}
	sp := tr.begin(parent, label, "hotpath.freq")
	freqs, err := hotpath.EventFrequenciesView(v, builderWorkers)
	tr.end(sp)
	if err != nil {
		return err
	}
	if err := e.r.output("freq/"+label, digestFreqs(freqs), ref.FreqSHA256); err != nil {
		return err
	}
	sp = tr.begin(parent, label, "hotpath.profile")
	paths, err := hotpath.PathProfileView(v, builderWorkers)
	var funcs []hotpath.FuncProfileEntry
	if err == nil {
		funcs, err = hotpath.FuncProfileView(v, builderWorkers)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	if err := e.r.output("path_profile/"+label, digestPathProfile(paths), ref.PathProfileSHA256); err != nil {
		return err
	}
	return e.r.output("func_profile/"+label, digestFuncProfile(funcs), ref.FuncProfileSHA256)
}

func (e *queryEnv) measureTraced(deadline time.Time, tr *tracer) error {
	l := newLayers()
	ref := e.r.opt.ref
	var hl *hotLayers
	err := e.r.tracedLoop(deadline, tr, func(tr *tracer, root int) error {
		if tr != nil {
			hl = &hotLayers{findTime: map[string]time.Duration{}, scanTime: map[string]time.Duration{}}
		}
		e.hotSet(tr, root, hl, nil)
		runtime.GC()
		e.lookupSet(tr, root)
		return nil
	}, func(root int) {
		sec := func(name string) float64 { return tr.sum(root, name).Seconds() }
		var opens []float64
		for _, d := range tr.durations(root, "store.open_view") {
			opens = append(opens, float64(d)/float64(time.Microsecond))
		}
		l.add("store.open_view_us", "us", median(opens))
		l.add("wpp.materialize_s", "s", sec("wpp.materialize"))
		l.add("wpp.materialize_bytes", "B", float64(hl.materialize))
		l.add("engine.analysis_s", "s", sec("engine.analysis"))
		l.add("engine.count_windows_s", "s", sec("engine.count_windows"))
		l.add("engine.distinct_windows", "count", float64(hl.windows))
		l.add("engine.crossing_windows_s", "s", sec("engine.crossing_windows"))
		for _, it := range e.hotItems() {
			label := it.label()
			l.add("hotpath.find_s."+label, "s", hl.findTime[label].Seconds())
		}
		l.add("hotpath.subpaths", "count", float64(hl.subpaths))
		l.add("hotpath.find_alloc_mb", "MB", hl.findAllocs/(1<<20))
		for _, name := range workloads.Names() {
			l.add("hotpath.vs_scan_x."+name, "x", hl.scanTime[name].Seconds()/hl.findTime[name+"-mono"].Seconds())
		}
		l.add("hotpath.freq_s", "s", sec("hotpath.freq"))
		l.add("hotpath.profile_s", "s", sec("hotpath.profile"))
		l.add("hotpath.spectra_s", "s", sec("hotpath.spectra"))
		var wantSubs, wantWindows int64
		for _, it := range e.hotItems() {
			wantSubs += int64(ref.Workloads[it.prog].Subpaths)
			if it.kind.chunk == 0 {
				wantWindows += int64(ref.Workloads[it.prog].DistinctWindows)
			}
		}
		e.r.op(e.r.count("hotpath.subpaths", hl.subpaths, wantSubs))
		e.r.op(e.r.count("engine.distinct_windows", hl.windows, wantWindows))
	})
	if err != nil {
		return err
	}
	l.report(e.r)
	return nil
}
