// Command pipebench is the repository's end-to-end benchmark of the
// whole-program-path pipeline. It runs one of three workloads — build,
// query or serve — in a single process, checks every output against the
// committed reference digests, and prints one JSON result line. See
// README.md for the workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
)

// A run sets its workload up at least setupReps times and for at least
// a setupShare of its measuring time, keeping the last environment;
// setup_s is the median. In a 20 s run, the time floor gives the
// millisecond build setup thousands of repetitions.
const (
	setupReps  = 5
	setupShare = 0.25
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale is medium for a benchmark run; the self-test runs small.
	scale experiments.Scale
	ref   *reference
	// work holds the run's stores and span file; it must exist.
	work string
}

// run is one benchmark run's bookkeeping. Operation counts and outputs
// may be recorded from several goroutines.
type run struct {
	opt options
	rng *rand.Rand

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	// order lists output labels in the order the first pass produced
	// them; outputs maps each label to its digest.
	order   []string
	outputs map[string]string
	metrics map[string]metric
	// detail holds a traced run's workload-specific layer figures,
	// written to the layer report rather than the result line.
	detail map[string]metric

	heap     *heapWatch
	peakHeap uint64 // highest live heap of the measured passes
}

func newRun(opt options) *run {
	return &run{
		opt:     opt,
		rng:     rand.New(rand.NewSource(opt.seed)),
		outputs: map[string]string{},
		metrics: map[string]metric{},
		detail:  map[string]metric{},
	}
}

// op counts one attempted operation, failed if err is non-nil.
func (r *run) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 20 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// output records the digest of a labelled result and checks it against
// want and against every earlier pass, so that an output which does not
// repeat exactly is a failure rather than noise.
func (r *run) output(label, got, want string) error {
	r.mu.Lock()
	prev, seen := r.outputs[label]
	if !seen {
		r.outputs[label] = got
		r.order = append(r.order, label)
	}
	r.mu.Unlock()
	switch {
	case got != want:
		return fmt.Errorf("%s: got %.16s, reference %.16s", label, got, want)
	case seen && got != prev:
		return fmt.Errorf("%s: changed between passes", label)
	}
	return nil
}

// count records an exact count like output does.
func (r *run) count(label string, got, want int64) error {
	return r.output(label, fmt.Sprint(got), fmt.Sprint(want))
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setPath sets the end-to-end metrics that every workload reports for
// its own path: events_per_s is the median of the per-pass rates, the
// op percentiles are taken over op, and aux_op_p50_ms is the median of
// aux. op and aux hold milliseconds, one value per operation or per
// item, as the workload defines them.
func (r *run) setPath(rates, op, aux []float64) {
	r.set("events_per_s", "ev/s", median(rates))
	r.set("op_p50_ms", "ms", quantile(op, 0.5))
	r.set("op_p95_ms", "ms", quantile(op, 0.95))
	r.set("aux_op_p50_ms", "ms", median(aux))
}

// itemMedians returns each item's median over the run's passes, in no
// particular order. Item latencies differ by up to 1000x between
// programs, so a percentile over all of a run's samples sits between
// two programs and jumps when load reorders them; taking each item's
// median first leaves only the change of the latencies themselves.
func itemMedians(byItem map[string][]float64) []float64 {
	var meds []float64
	for _, ls := range byItem {
		meds = append(meds, median(ls))
	}
	return meds
}

// heapPoll is how often the heap watcher samples the live heap. The
// live heap changes once per GC cycle, and cycles are further apart
// than this even while a hot query allocates at full speed, so the
// watcher sees every cycle; sampling only between operations would
// see just the last cycle before each sample.
const heapPoll = 5 * time.Millisecond

// heapWatch keeps the highest live heap, as marked by a GC cycle, seen
// since the last take.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapPoll)
		defer t.Stop()
		for {
			h.observe()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) observe() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for cur := h.peak.Load(); v > cur && !h.peak.CompareAndSwap(cur, v); cur = h.peak.Load() {
	}
}

// take returns the highest live heap since the last take.
func (h *heapWatch) take() uint64 {
	h.observe()
	return h.peak.Swap(0)
}

func (h *heapWatch) close() {
	close(h.stop)
	<-h.done
}

// runtimeCounters reads the cumulative runtime figures the per-layer
// metrics difference.
type runtimeCounters struct{ gcCPU, totalCPU, allocBytes, allocObjects float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64()), float64(s[3].Value.Uint64())}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.gcCPU - o.gcCPU, c.totalCPU - o.totalCPU, c.allocBytes - o.allocBytes, c.allocObjects - o.allocObjects}
}

// workload is one benchmark workload: setup builds its inputs, and the
// environment it returns runs measured passes.
type workload interface {
	// measure runs untraced passes and sets the end-to-end metrics.
	measure(deadline time.Time) error
	// measureTraced alternates untraced and traced passes and sets the
	// per-layer metrics.
	measureTraced(deadline time.Time, tr *tracer) error
	close()
}

var setups = map[string]func(r *run) (workload, error){
	"build": setupBuild,
	"query": setupQuery,
	"serve": setupServe,
}

// execute performs one run: set up repeatedly, keeping the last
// environment, then measure for the given seconds.
func execute(opt options) (*run, error) {
	setup, ok := setups[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want build, query or serve)", opt.workload)
	}
	r := newRun(opt)
	r.heap = watchHeap()
	defer r.heap.close()
	var times []float64
	var env workload
	first := time.Now()
	minSetup := time.Duration(setupShare * opt.seconds * float64(time.Second))
	for i := 0; i < setupReps || time.Since(first) < minSetup; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		env, err = setup(r)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", opt.workload, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer env.close()
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	if !opt.trace {
		r.set("setup_s", "s", median(times))
		if err := env.measure(deadline); err != nil {
			return nil, err
		}
		r.set("peak_heap_mb", "MB", float64(r.peakHeap)/(1<<20))
		r.set("ok_ratio", "1", okRatio(r.failed))
		return r, nil
	}
	tr := newTracer()
	before := readRuntime()
	if err := env.measureTraced(deadline, tr); err != nil {
		return nil, err
	}
	d := readRuntime().sub(before)
	r.set("runtime.gc_cpu_frac", "1", d.gcCPU/d.totalCPU)
	tr.finish()
	for layer, share := range tr.shares() {
		r.set("share."+layer, "1", share)
	}
	base := filepath.Join(opt.work, fmt.Sprintf("%s-%d", opt.workload, opt.seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if err := writeDetail(base+".layers.json", r.detail); err != nil {
		return nil, fmt.Errorf("writing the layer report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pipebench: %d spans written to %s.spans.jsonl, layer figures to %s.layers.json\n", len(tr.spans), base, base)
	return r, nil
}

// writeDetail writes the layer report: one JSON object mapping each
// workload-specific layer figure to its value and unit.
func writeDetail(path string, detail map[string]metric) error {
	data, err := json.MarshalIndent(detail, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// passLoop runs pass until the deadline, at least atLeast times,
// starting a pass only when the slowest pass so far would still end in
// time, and records the peak live heap of the passes. Each pass starts
// from a collected heap, so that garbage one pass leaves does not pace
// the collector in the next.
func (r *run) passLoop(deadline time.Time, atLeast int, pass func(i int) error) error {
	var slowest time.Duration
	for i := 0; ; i++ {
		if i >= atLeast && time.Now().Add(slowest).After(deadline) {
			return nil
		}
		runtime.GC()
		r.heap.take()
		start := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		d := time.Since(start)
		r.peakHeap = max(r.peakHeap, r.heap.take())
		fmt.Fprintf(os.Stderr, "pipebench: pass %d took %.3fs\n", i, d.Seconds())
		slowest = max(slowest, d)
	}
}

// tracedLoop alternates an untraced and a traced pass until the
// deadline, at least once each, and reports the trace overhead: traced
// pass time, less the work only the traced pass does, over untraced
// pass time.
func (r *run) tracedLoop(deadline time.Time, tr *tracer, pass func(tr *tracer, root int) error, perPass func(root int)) error {
	var plain, traced []float64
	var allocs []float64
	err := r.passLoop(deadline, 2, func(i int) error {
		start := time.Now()
		if i%2 == 0 {
			if err := pass(nil, 0); err != nil {
				return err
			}
			plain = append(plain, time.Since(start).Seconds())
			return nil
		}
		before := readRuntime()
		root := tr.begin(0, "", "pass")
		if err := pass(tr, root); err != nil {
			return err
		}
		tr.end(root)
		allocs = append(allocs, readRuntime().sub(before).allocBytes/(1<<20))
		tr.finish()
		traced = append(traced, time.Since(start).Seconds()-tr.extraTime(root).Seconds())
		perPass(root)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("runtime.alloc_mb", "MB", median(allocs))
	r.set("bench.trace_overhead_frac", "1", median(traced)/median(plain)-1)
	return nil
}

// layers accumulates a workload's layer figures over traced passes;
// each reports the median over passes into the layer report.
type layers struct {
	vals  map[string][]float64
	units map[string]string
	order []string
}

func newLayers() *layers {
	return &layers{vals: map[string][]float64{}, units: map[string]string{}}
}

func (l *layers) add(name, unit string, v float64) {
	if _, ok := l.units[name]; !ok {
		l.units[name] = unit
		l.order = append(l.order, name)
	}
	l.vals[name] = append(l.vals[name], v)
}

func (l *layers) report(r *run) {
	for _, name := range l.order {
		r.detail[name] = metric{Value: median(l.vals[name]), Unit: l.units[name]}
	}
}

// okRatio is the end-to-end stand-in for the failed-operation ratio:
// exactly 1 on a clean run and at most 0.5 after any failure, so one
// wrong output moves it past its bound however many operations the run
// attempted, and never 0.
func okRatio(failed int) float64 {
	return 1 / (1 + float64(failed))
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func main() {
	var (
		opt      options
		refPath  = flag.String("ref", "pipebench/reference.json", "reference digest file")
		regen    = flag.Bool("regen", false, "write the reference file from the oracle paths and exit")
		traceArg = flag.Int("trace", 0, "1 runs traced passes and prints the per-layer metrics")
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to run: build, query or serve")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for pass order and frame-size jitter")
	flag.Float64Var(&opt.seconds, "seconds", 20, "how long to measure")
	flag.StringVar(&opt.work, "work", ".bench_build/pipebench", "directory for stores and span files")
	flag.Parse()
	if err := mainErr(opt, *refPath, *regen, *traceArg); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
}

func mainErr(opt options, refPath string, regen bool, traceArg int) error {
	var err error
	opt.scale = experiments.Medium
	if regen {
		ref, err := regenerate(opt.scale)
		if err != nil {
			return err
		}
		return writeReference(refPath, ref)
	}
	if traceArg != 0 && traceArg != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	opt.trace = traceArg == 1
	if opt.ref, err = loadReference(refPath, opt.scale); err != nil {
		return err
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return err
	}
	r, err := execute(opt)
	if err != nil {
		return err
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "pipebench: failed:", e)
	}
	out, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
