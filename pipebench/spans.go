package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one artifact or serve
// session share a group; a pass span is a root and every other span
// names its parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	// Extra marks a span whose work only the traced pass does, to split
	// one layer from the next; it is left out of the trace overhead.
	Extra bool          `json:"extra,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	Self  time.Duration `json:"self_ns"`
}

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced passes run the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 opens a pass) and returns its id.
func (t *tracer) begin(parent int, group, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	pass := id
	if parent > 0 {
		pass = t.spans[parent-1].Pass
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: pass, Group: group, Name: name, Start: now})
	return id
}

// extra is begin for a span whose work the untraced pass does not do.
func (t *tracer) extra(parent int, group, name string) int {
	id := t.begin(parent, group, name)
	if id > 0 {
		t.mu.Lock()
		t.spans[id-1].Extra = true
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the part
// of it that its children cover.
func (t *tracer) finish() {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, reach time.Duration
		reach = s.Start
		for _, k := range kids {
			from, to := max(k.Start, reach), min(k.End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// sum adds the self time of the pass's spans that have the name.
func (t *tracer) sum(pass int, name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Pass == pass && s.Name == name {
			d += s.Self
		}
	}
	return d
}

// durations lists the durations of the pass's spans that have the
// name.
func (t *tracer) durations(pass int, name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Pass == pass && s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	return ds
}

// extraTime is the wall time of the pass covered by extra spans.
func (t *tracer) extraTime(pass int) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Pass == pass && s.Extra {
			d += s.End - s.Start
		}
	}
	return d
}

// shareLayers are the layers a traced run's time is charged to. Every
// workload reports a share for each, 0 for the layers its passes do
// not call, so that the three workloads print the same metrics.
var shareLayers = []string{
	"wlc", "interp", "wpp.builder", "wpp.codec", "store", "hotpath",
	"serve.ingest", "serve.hot", "serve.seal", "serve.lifecycle", "bench",
}

// layerOf names the layer a span's self time is charged to. Grouping
// spans — pass, artifact, query, lookup, serve.session — are the
// benchmark's own time between layer calls.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "wpp.append"), name == "wpp.finish":
		return "wpp.builder"
	case strings.HasPrefix(name, "wpp."):
		return "wpp.codec"
	case name == "serve.ingest", name == "serve.hot", name == "serve.seal":
		return name
	case name == "serve.open", name == "serve.artifact", name == "serve.evict":
		return "serve.lifecycle"
	}
	for _, l := range []string{"wlc", "interp", "store", "hotpath"} {
		if strings.HasPrefix(name, l+".") {
			return l
		}
	}
	return "bench"
}

// shares returns, for every layer of shareLayers, its share of the self
// time of the traced passes. Extra spans are left out: they are work
// the untraced passes do not do. Self times of concurrent sessions add
// up, so the shares sum to 1 even where two clients overlap.
func (t *tracer) shares() map[string]float64 {
	passes := map[int]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == "pass" {
			passes[s.ID] = true
		}
	}
	by := map[string]time.Duration{}
	var total time.Duration
	for _, s := range t.spans {
		if passes[s.Pass] && !s.Extra {
			by[layerOf(s.Name)] += s.Self
			total += s.Self
		}
	}
	out := map[string]float64{}
	for _, l := range shareLayers {
		out[l] = float64(by[l]) / float64(total)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
