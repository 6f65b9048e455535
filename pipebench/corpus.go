package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/hotpath"
	"repro/internal/trace"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// chunkSize is the chunked build geometry of every workload.
const chunkSize = 4096

// hotOpts are the E6 settings of the paper's hot-subpath experiment.
var hotOpts = hotpath.Options{MinLen: 4, MaxLen: 16, Threshold: 0.005}

// kind is one of the two artifacts built from each WL program: the
// monolithic grammar encoded as wpp2, and the chunked build encoded as
// wpc1.
type kind struct {
	name    string // "mono" or "chunked"
	chunk   uint64
	version uint8
	format  string // encoding name, as in the reference file
}

var kinds = []kind{
	{name: "mono", chunk: 0, version: iwpp.FormatV2, format: "wpp2"},
	{name: "chunked", chunk: chunkSize, version: iwpp.FormatV1, format: "wpc1"},
}

// reference holds the expected outputs of every run, computed only from
// oracle paths: batch builds of the captured events, FindByScan, and
// frequencies counted by walking the decompressed trace.
type reference struct {
	Scale string      `json:"scale"`
	Hot   hotSettings `json:"hot"`
	Chunk uint64      `json:"chunk"`
	// Workloads is keyed by WL program name.
	Workloads map[string]*programRef `json:"workloads"`
}

type hotSettings struct {
	MinLen    int     `json:"min_len"`
	MaxLen    int     `json:"max_len"`
	Threshold float64 `json:"threshold"`
}

type programRef struct {
	Events        uint64 `json:"events"`
	Instructions  uint64 `json:"instructions"`
	DistinctPaths int    `json:"distinct_paths"`
	// Artifacts is keyed by encoding: wpp1, wpp2, wpc1, wpc2.
	Artifacts map[string]artifactRef `json:"artifacts"`
	// Rules and Symbols are the SEQUITUR grammar sizes, keyed by kind.
	Rules   map[string]int `json:"rules"`
	Symbols map[string]int `json:"symbols"`
	// DistinctWindows counts distinct event windows of every length
	// in [min_len, max_len].
	DistinctWindows   int    `json:"distinct_windows"`
	Subpaths          int    `json:"subpaths"`
	HotSHA256         string `json:"hot_sha256"`
	FreqSHA256        string `json:"freq_sha256"`
	PathProfileSHA256 string `json:"path_profile_sha256"`
	FuncProfileSHA256 string `json:"func_profile_sha256"`
}

type artifactRef struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

func loadReference(path string, scale experiments.Scale) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parsing reference %s: %w", path, err)
	}
	want := hotSettings{hotOpts.MinLen, hotOpts.MaxLen, hotOpts.Threshold}
	if ref.Scale != scale.String() || ref.Hot != want || ref.Chunk != chunkSize {
		return nil, fmt.Errorf("reference %s was made for scale %s, %+v, chunk %d; regenerate it", path, ref.Scale, ref.Hot, ref.Chunk)
	}
	for _, name := range workloads.Names() {
		if ref.Workloads[name] == nil {
			return nil, fmt.Errorf("reference %s lacks workload %s", path, name)
		}
	}
	return &ref, nil
}

func writeReference(path string, ref *reference) error {
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// total sums one field over every program of the reference.
func (r *reference) total(f func(*programRef) int64) int64 {
	var n int64
	for _, p := range r.Workloads {
		n += f(p)
	}
	return n
}

// capture runs every bundled WL program once under path tracing.
func captureAll(scale experiments.Scale) ([]*experiments.Capture, error) {
	var caps []*experiments.Capture
	for _, name := range workloads.Names() {
		c, err := experiments.CaptureWorkload(name, scale)
		if err != nil {
			return nil, err
		}
		caps = append(caps, c)
	}
	return caps, nil
}

// batchBuild builds one artifact from captured events with AddBatch.
func batchBuild(c *experiments.Capture, k kind, workers int) iwpp.Artifact {
	b := iwpp.New(c.Names, c.Nums, iwpp.BuildOptions{ChunkSize: k.chunk, Workers: workers})
	b.AddBatch(c.Events)
	a := b.Finish(c.Instructions)
	iwpp.SetVersion(a, k.version)
	return a
}

func encode(a iwpp.Artifact) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// grammarSize returns an artifact's rule and right-hand-side symbol
// counts.
func grammarSize(a iwpp.Artifact) (rules, symbols int) {
	switch t := a.(type) {
	case *iwpp.WPP:
		st := t.Stats()
		return st.Rules, st.RHSSymbols
	case *iwpp.ChunkedWPP:
		st := t.Stats()
		return st.Rules, st.RHSSymbols
	}
	return 0, 0
}

// regenerate computes the reference from the oracle paths only.
func regenerate(scale experiments.Scale) (*reference, error) {
	caps, err := captureAll(scale)
	if err != nil {
		return nil, err
	}
	ref := &reference{
		Scale:     scale.String(),
		Hot:       hotSettings{hotOpts.MinLen, hotOpts.MaxLen, hotOpts.Threshold},
		Chunk:     chunkSize,
		Workloads: map[string]*programRef{},
	}
	for _, c := range caps {
		p := &programRef{
			Events:       uint64(len(c.Events)),
			Instructions: c.Instructions,
			Artifacts:    map[string]artifactRef{},
			Rules:        map[string]int{},
			Symbols:      map[string]int{},
		}
		var mono *iwpp.WPP
		for _, k := range kinds {
			a := batchBuild(c, k, 1)
			p.Rules[k.name], p.Symbols[k.name] = grammarSize(a)
			for _, v := range []uint8{iwpp.FormatV1, iwpp.FormatV2} {
				iwpp.SetVersion(a, v)
				enc, err := encode(a)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", c.Workload.Name, err)
				}
				p.Artifacts[formatName(k.chunk, v)] = artifactRef{SHA256: sha(enc), Bytes: int64(len(enc))}
			}
			if w, ok := a.(*iwpp.WPP); ok {
				mono = w
			}
		}
		var events []trace.Event
		mono.Walk(func(e trace.Event) bool { events = append(events, e); return true })
		subs, err := hotpath.FindByScan(mono, hotOpts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Workload.Name, err)
		}
		p.Subpaths = len(subs)
		p.HotSHA256 = digestSubpaths(subs)
		freqs := map[trace.Event]uint64{}
		for _, e := range events {
			freqs[e]++
		}
		p.DistinctPaths = len(freqs)
		p.FreqSHA256 = digestFreqs(freqs)
		p.PathProfileSHA256, p.FuncProfileSHA256 = oracleProfiles(freqs, mono.PathCost, mono.Instructions)
		p.DistinctWindows = scanDistinctWindows(events)
		ref.Workloads[c.Workload.Name] = p
	}
	return ref, nil
}

// formatName names an encoding by its artifact magic.
func formatName(chunk uint64, version uint8) string {
	name := "wpp"
	if chunk > 0 {
		name = "wpc"
	}
	return name + strconv.Itoa(int(version))
}

// scanDistinctWindows counts distinct windows of each hot-search length
// by sliding over the decompressed trace.
func scanDistinctWindows(events []trace.Event) int {
	n := 0
	seen := map[string]struct{}{}
	key := make([]byte, 0, 8*hotOpts.MaxLen)
	for l := hotOpts.MinLen; l <= hotOpts.MaxLen; l++ {
		clear(seen)
		for i := 0; i+l <= len(events); i++ {
			key = key[:0]
			for _, e := range events[i : i+l] {
				key = binary.BigEndian.AppendUint64(key, uint64(e))
			}
			seen[string(key)] = struct{}{}
		}
		n += len(seen)
	}
	return n
}

// oracleProfiles digests the path and function profiles built from
// walked frequencies, in the order the hotpath API documents: cost
// descending, then event (or function) ascending.
func oracleProfiles(freqs map[trace.Event]uint64, costOf func(trace.Event) uint64, total uint64) (string, string) {
	var paths []hotpath.PathProfileEntry
	byFunc := map[uint32]*hotpath.FuncProfileEntry{}
	for e, n := range freqs {
		cost := n * costOf(e)
		paths = append(paths, hotpath.PathProfileEntry{Event: e, Count: n, Cost: cost, Fraction: fraction(cost, total)})
		fe := byFunc[e.Func()]
		if fe == nil {
			fe = &hotpath.FuncProfileEntry{Func: e.Func()}
			byFunc[e.Func()] = fe
		}
		fe.Events += n
		fe.Cost += cost
	}
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].Cost != paths[j].Cost {
			return paths[i].Cost > paths[j].Cost
		}
		return paths[i].Event < paths[j].Event
	})
	var funcs []hotpath.FuncProfileEntry
	for _, fe := range byFunc {
		fe.Fraction = fraction(fe.Cost, total)
		funcs = append(funcs, *fe)
	}
	sort.Slice(funcs, func(i, j int) bool {
		if funcs[i].Cost != funcs[j].Cost {
			return funcs[i].Cost > funcs[j].Cost
		}
		return funcs[i].Func < funcs[j].Func
	})
	return digestPathProfile(paths), digestFuncProfile(funcs)
}

func fraction(cost, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(cost) / float64(total)
}

// The digests below render a result as text lines and hash them; the
// oracle and the pipeline share only this rendering.

func digestLines(lines []string) string {
	return sha([]byte(strings.Join(lines, "\n")))
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func digestSubpaths(subs []hotpath.Subpath) string {
	lines := make([]string, len(subs))
	for i, s := range subs {
		ev := make([]string, len(s.Events))
		for j, e := range s.Events {
			ev[j] = strconv.FormatUint(uint64(e), 10)
		}
		lines[i] = fmt.Sprintf("%s %d %d %s", strings.Join(ev, ","), s.Count, s.Cost, ftoa(s.Fraction))
	}
	return digestLines(lines)
}

func digestFreqs(freqs map[trace.Event]uint64) string {
	lines := make([]string, 0, len(freqs))
	for e, n := range freqs {
		lines = append(lines, fmt.Sprintf("%d %d", e, n))
	}
	sort.Strings(lines)
	return digestLines(lines)
}

func digestPathProfile(entries []hotpath.PathProfileEntry) string {
	lines := make([]string, len(entries))
	for i, e := range entries {
		lines[i] = fmt.Sprintf("%d %d %d %s", e.Event, e.Count, e.Cost, ftoa(e.Fraction))
	}
	return digestLines(lines)
}

func digestFuncProfile(entries []hotpath.FuncProfileEntry) string {
	lines := make([]string, len(entries))
	for i, e := range entries {
		lines[i] = fmt.Sprintf("%d %d %d %s", e.Func, e.Events, e.Cost, ftoa(e.Fraction))
	}
	return digestLines(lines)
}
