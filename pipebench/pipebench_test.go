package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// The self-test runs every workload at small scale against a reference
// regenerated from the oracle paths. Run it from this directory with
// go test.

// benchSpec is the part of BENCHMARK.json the self-test checks.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

// specMetric is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type specMetric struct {
	Name, Unit string
	Bound      float64
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smallReference(t *testing.T) *reference {
	t.Helper()
	ref, err := regenerate(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func smallRun(t *testing.T, ref *reference, workload string, seed int64, traced bool) *run {
	t.Helper()
	r, err := execute(options{
		workload: workload, seed: seed, seconds: 0.2, trace: traced,
		scale: experiments.Small, ref: ref, work: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r
}

// TestMetricsEmitted checks that every untraced run emits exactly the
// end-to-end metrics and every traced run exactly the per-layer
// metrics, each with the unit BENCHMARK.json gives it, on every
// workload, and that nothing fails.
func TestMetricsEmitted(t *testing.T) {
	spec := loadSpec(t)
	ref := smallReference(t)
	for _, traced := range []bool{false, true} {
		want := map[string]string{}
		list := spec.EndToEnd
		if traced {
			list = spec.PerLayer
		}
		for _, m := range list {
			want[m.Name] = m.Unit
		}
		for _, w := range spec.Workloads {
			r := smallRun(t, ref, w.Name, 1, traced)
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, r.failed, r.attempted, r.errs)
			}
			for name, m := range r.metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] is not in BENCHMARK.json with that unit", w.Name, traced, name, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s is %v", w.Name, traced, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, not positive", w.Name, name, m.Value)
				}
			}
			for name := range want {
				if _, ok := r.metrics[name]; !ok {
					t.Errorf("%s traced=%v: %s is not emitted", w.Name, traced, name)
				}
			}
			if traced && len(r.detail) == 0 {
				t.Errorf("%s: the traced run wrote no layer figures", w.Name)
			}
		}
	}
}

// flip returns digest with its first hex digit changed.
func flip(digest string) string {
	if digest[0] == '0' {
		return "1" + digest[1:]
	}
	return "0" + digest[1:]
}

// okBound is the share by which BENCHMARK.json lets ok_ratio drop.
func okBound(t *testing.T) float64 {
	t.Helper()
	for _, m := range loadSpec(t).EndToEnd {
		if m.Name == "ok_ratio" {
			return m.Bound
		}
	}
	t.Fatal("BENCHMARK.json has no ok_ratio")
	return 0
}

// checkTrips asserts that a run with a flipped digest counts a failure
// and moves ok_ratio past its bound.
func checkTrips(t *testing.T, ref *reference, workload, what string) {
	t.Helper()
	r := smallRun(t, ref, workload, 1, false)
	if got := r.metrics["ok_ratio"].Value; r.failed == 0 || got >= 1-okBound(t) {
		t.Errorf("%s, %s: gave %d failures of %d, ok_ratio %v, within its bound", workload, what, r.failed, r.attempted, got)
	}
}

// TestFlippedDigestFails checks that a wrong reference artifact digest
// is counted as a failure on every workload, and that one wrong
// hot-subpath digest is on query, each moving ok_ratio past its bound.
func TestFlippedDigestFails(t *testing.T) {
	ref := smallReference(t)
	for _, k := range kinds {
		a := ref.Workloads["sim"].Artifacts[k.format]
		a.SHA256 = flip(a.SHA256)
		ref.Workloads["sim"].Artifacts[k.format] = a
	}
	for _, w := range []string{"build", "query", "serve"} {
		checkTrips(t, ref, w, "flipped sim artifact digests")
	}
	ref = smallReference(t)
	ref.Workloads["expr"].HotSHA256 = flip(ref.Workloads["expr"].HotSHA256)
	checkTrips(t, ref, "query", "flipped expr hot-subpath digest")
}

// TestSeedsChangeOrderNotOutputs checks that two seeds run the
// operations in different orders and produce identical outputs.
func TestSeedsChangeOrderNotOutputs(t *testing.T) {
	ref := smallReference(t)
	for _, w := range []string{"build", "query", "serve"} {
		a, b := smallRun(t, ref, w, 1, false), smallRun(t, ref, w, 2, false)
		if reflect.DeepEqual(a.order, b.order) {
			t.Errorf("%s: seeds 1 and 2 ran in the same order", w)
		}
		if !reflect.DeepEqual(a.outputs, b.outputs) {
			t.Errorf("%s: seeds 1 and 2 gave different outputs", w)
		}
	}
}
