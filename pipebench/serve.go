package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/store"
	iwpp "repro/internal/wpp"
)

const (
	// frameEvents is the mean WPT1 frame size; each frame's size is
	// drawn from frameEvents ± frameJitter with the seed.
	frameEvents = 4096
	frameJitter = 512
	// retries bounds how often a shed (503) request is repeated.
	retries = 100
)

// serveEnv runs the operator path: an in-process wppd with a store,
// on loopback, fed by two closed-loop clients, one per artifact kind,
// that replay the captured runs.
type serveEnv struct {
	r      *run
	caps   []*experiments.Capture
	frames [][][]byte // frames[capture]
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	cls    []*serve.Client

	mu  sync.Mutex
	lat map[string][]time.Duration // a pass's request latencies by span name
	// latBy holds the untraced run's latencies in ms by span name and
	// session group.
	latBy     map[string]map[string][]float64
	shed      int64
	frameSize int64 // bytes of one replay of every capture
	events    int64 // events of one replay of every capture
	plainWall []float64
}

func setupServe(r *run) (workload, error) {
	caps, err := captureAll(r.opt.scale)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{r: r, caps: caps}
	for _, c := range caps {
		var fs [][]byte
		for i := 0; i < len(c.Events); {
			n := min(frameEvents-frameJitter+r.rng.Intn(2*frameJitter+1), len(c.Events)-i)
			f := serve.EncodeFrame(c.Events[i : i+n])
			fs = append(fs, f)
			e.frameSize += int64(len(f))
			i += n
		}
		e.frames = append(e.frames, fs)
		e.events += int64(len(c.Events))
	}
	if e.dir, err = os.MkdirTemp(r.opt.work, "serve-store-"); err != nil {
		return nil, err
	}
	st, err := store.Open(e.dir, nil)
	if err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = serve.New(serve.Config{Store: st})
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	for range kinds {
		c := serve.NewClient("http://" + ln.Addr().String())
		c.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		e.cls = append(e.cls, c)
	}
	if _, err := e.cls[0].Health(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) close() {
	if e.hs != nil {
		e.hs.Close()
		<-e.served
		e.srv.Close()
		for _, c := range e.cls {
			c.HTTP.CloseIdleConnections()
		}
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// warmUp runs one pass, checked but not measured, so that the
// daemon's store holds every artifact before the measured passes. A
// measured seal's put then finds its artifact stored, as when a program
// is run again. Without it, the first pass's seals would write the
// store and the later ones would not; and the writes themselves, whose
// cost on the shared disk changed by 2–3× from run to run, are measured
// by the build workload's store.put_s.
func (e *serveEnv) warmUp() {
	e.pass(nil, 0)
}

// measure reports the events sealed per second of pass wall time; the
// op is one frame's ingest, over every frame of the run, and the aux op
// a session's seal. A pass has about 2,000 frames, 20 seals and 10 live
// queries. Seal latencies differ by up to 50× between programs, so
// their p50 is taken over sessions, each session's latency being its
// median over the run's passes. The traced run reports the live /hot
// latencies and the ingest p99 in its layer report.
func (e *serveEnv) measure(deadline time.Time) error {
	var rates, ingest []float64
	e.warmUp()
	e.latBy = map[string]map[string][]float64{"serve.seal": {}}
	e.r.passLoop(deadline, 2, func(int) error {
		start := time.Now()
		sealed := e.pass(nil, 0)
		rates = append(rates, float64(sealed)/time.Since(start).Seconds())
		ingest = append(ingest, ms(e.lat["serve.ingest"])...)
		return nil
	})
	e.r.setPath(rates, ingest, itemMedians(e.latBy["serve.seal"]))
	return nil
}

// session is one replay: a capture and the kind of artifact the server
// builds from it.
type session struct {
	capture int
	kind    kind
}

// pass replays every capture twice, as a monolithic wpp2 session on one
// client and as a chunked wpc1 session on the other, in a program order
// drawn from the seed. The two sessions of a program run side by side
// and the next program starts when both have ended, so every pass
// overlaps the same sessions: a program's live /hot always runs beside
// its own chunked ingest. It returns the events sealed.
func (e *serveEnv) pass(tr *tracer, root int) int64 {
	e.lat = map[string][]time.Duration{}
	var sealed [2]int64
	for _, i := range e.r.rng.Perm(len(e.caps)) {
		var wg sync.WaitGroup
		for j, k := range kinds {
			wg.Add(1)
			go func(j int, k kind) {
				defer wg.Done()
				sealed[j] += e.session(tr, root, e.cls[j], session{capture: i, kind: k})
			}(j, k)
		}
		wg.Wait()
	}
	return sealed[0] + sealed[1]
}

// call times one request, repeating it while the server sheds load;
// each attempt counts as an operation and a shed one as failed.
func (e *serveEnv) call(tr *tracer, parent int, group, name string, f func() error) error {
	for attempt := 0; ; attempt++ {
		sp := tr.begin(parent, group, name)
		start := time.Now()
		err := f()
		d := time.Since(start)
		tr.end(sp)
		e.r.op(err)
		if serve.IsStatus(err, http.StatusServiceUnavailable) && attempt < retries {
			e.mu.Lock()
			e.shed++
			e.mu.Unlock()
			time.Sleep(time.Millisecond)
			continue
		}
		if err == nil {
			e.mu.Lock()
			e.lat[name] = append(e.lat[name], d)
			if by, ok := e.latBy[name]; ok {
				by[group] = append(by[group], float64(d)/float64(time.Millisecond))
			}
			e.mu.Unlock()
		}
		return err
	}
}

// session replays one capture and checks the sealed artifact; it
// returns the events sealed, 0 if the session failed.
func (e *serveEnv) session(tr *tracer, root int, c *serve.Client, s session) int64 {
	cp := e.caps[s.capture]
	name := cp.Workload.Name
	ref := e.r.opt.ref.Workloads[name]
	group := name + "-" + s.kind.name
	parent := tr.begin(root, group, "serve.session")
	defer tr.end(parent)
	format := "wpp1"
	if s.kind.version == iwpp.FormatV2 {
		format = "wpp2"
	}
	req := serve.OpenRequest{Workload: name, Scale: e.r.opt.scale.String(), Chunk: s.kind.chunk, Workers: builderWorkers, Format: format}
	var info serve.SessionInfo
	err := e.call(tr, parent, group, "serve.open", func() (err error) {
		info, err = c.Open(req)
		return err
	})
	if err != nil {
		return 0
	}
	defer e.call(tr, parent, group, "serve.evict", func() error { return c.Evict(info.ID) })
	frames := e.frames[s.capture]
	var sent uint64
	for i, f := range frames {
		if i == len(frames)/2 && s.kind.chunk == 0 {
			err := e.call(tr, parent, group, "serve.hot", func() error {
				res, err := c.Hot(info.ID, serve.HotQuery{})
				if err == nil && (res.Sealed || res.Events != sent) {
					err = fmt.Errorf("live hot %s: sealed=%v over %d events, sent %d", group, res.Sealed, res.Events, sent)
				}
				return err
			})
			if err != nil {
				return 0
			}
		}
		err := e.call(tr, parent, group, "serve.ingest", func() error {
			res, err := c.IngestRaw(info.ID, f)
			sent += res.Accepted
			return err
		})
		if err != nil {
			return 0
		}
	}
	want := ref.Artifacts[s.kind.format].SHA256
	var res serve.SealResult
	err = e.call(tr, parent, group, "serve.seal", func() (err error) {
		if res, err = c.Seal(info.ID, cp.Instructions); err != nil {
			return err
		}
		if res.Events != ref.Events {
			return fmt.Errorf("seal %s: %d events, reference %d", group, res.Events, ref.Events)
		}
		return e.r.output("serve/"+group, res.SHA256, want)
	})
	if err != nil {
		return 0
	}
	err = e.call(tr, parent, group, "serve.artifact", func() error {
		data, err := c.Artifact(info.ID)
		if err == nil && sha(data) != want {
			err = errors.New("artifact " + group + ": downloaded bytes differ from the reference")
		}
		return err
	})
	if err != nil {
		return 0
	}
	return int64(res.Events)
}

func (e *serveEnv) measureTraced(deadline time.Time, tr *tracer) error {
	// The single-threaded baseline: a local AddBatch build of the same
	// captures.
	sp := tr.extra(0, "", "serve.batch_baseline")
	start := time.Now()
	for _, c := range e.caps {
		for _, k := range kinds {
			batchBuild(c, k, 1)
		}
	}
	batch := time.Since(start).Seconds()
	tr.end(sp)

	e.warmUp()
	l := newLayers()
	var shedBefore int64
	err := e.r.tracedLoop(deadline, tr, func(tr *tracer, root int) error {
		e.mu.Lock()
		shedBefore = e.shed
		e.mu.Unlock()
		start := time.Now()
		e.pass(tr, root)
		if tr == nil {
			e.plainWall = append(e.plainWall, time.Since(start).Seconds())
		}
		return nil
	}, func(root int) {
		p50 := func(name string) float64 { return quantile(ms(tr.durations(root, name)), 0.5) }
		l.add("serve.open_p50_ms", "ms", p50("serve.open"))
		l.add("serve.live_hot_p50_ms", "ms", p50("serve.hot"))
		l.add("serve.artifact_p50_ms", "ms", p50("serve.artifact"))
		l.add("serve.evict_p50_ms", "ms", p50("serve.evict"))
		ingest := ms(tr.durations(root, "serve.ingest"))
		l.add("serve.ingest_n", "count", float64(len(ingest)))
		l.add("serve.ingest_p99_ms", "ms", quantile(ingest, 0.99))
		e.mu.Lock()
		l.add("serve.shed_503", "count", float64(e.shed-shedBefore))
		e.mu.Unlock()
		l.add("serve.frame_bytes_per_event", "B", float64(e.frameSize)/float64(e.events))
	})
	if err != nil {
		return err
	}
	l.add("serve.vs_batch_x", "x", median(e.plainWall)/batch)
	l.report(e.r)
	return nil
}
