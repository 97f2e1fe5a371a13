package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is malformed", d.name, d.unit)
		}
		seen[d.name] = true
	}
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkJSON checks that BENCHMARK.json names workloads this
// harness runs and exactly the metrics it produces.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	// fattree4k runs by hand only: its wall time spreads too widely on a
	// shared machine for the benchmark's bounds (see README.md).
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json has %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q is not a harness workload or its why is malformed", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: %s/%s, harness has %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v or direction %q out of range", m.Name, m.Bound, m.Better)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != largest) {
			t.Errorf("setup_s must be in s, lower-is-better, with the largest bound")
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %d: %s/%s/%s, harness has %s/%s", i, m.Name, m.Unit, m.Better, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// tiny returns a copy of a workload at a scale small enough for tests.
func tiny(w *workload) *workload {
	c := *w
	c.scale = 0.01
	c.setupReps = 1
	return &c
}

// TestSmokeDigestsStable runs each workload twice at a tiny scale: the
// digests must repeat, and the traced operation must reproduce them.
func TestSmokeDigestsStable(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			cc, err := w.corner(3, w.scale)
			if err != nil {
				t.Fatal(err)
			}
			a, err := w.untracedOp(cc, w.shards)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.untracedOp(cc, w.shards)
			if err != nil {
				t.Fatal(err)
			}
			if mismatches(a.digests, b.digests) != 0 || a.text != b.text {
				t.Fatalf("repetitions differ: %x vs %x", a.digests, b.digests)
			}
			tr, err := w.tracedOp(newTracer(), 0, cc)
			if err != nil {
				t.Fatal(err)
			}
			if mismatches(a.digests, tr.digests) != 0 || a.text != tr.text {
				t.Fatalf("traced operation differs: %x vs %x", tr.digests, a.digests)
			}
			for i, err := range tr.quiesceErrs {
				if err != nil {
					t.Errorf("%v: %v", w.policies[i], err)
				}
			}
		})
	}
}

// TestOutputShape runs the whole benchmark at a tiny scale, seed 1 (so
// the committed-figure checks run too), in both modes, and checks the
// last output line: exactly the keys correct, attempted, failed and
// metrics, with every metric of the mode and its unit.
func TestOutputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, w := range workloads {
		w := tiny(w)
		for _, traced := range []bool{false, true} {
			var stdout, stderr bytes.Buffer
			res, err := bench(w, 1, 0, traced, t.TempDir(), &stdout, &stderr)
			if err != nil {
				t.Fatalf("%s: %v\n%s", w.name, err, stderr.String())
			}
			if err := json.NewEncoder(&stdout).Encode(res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
				t.Fatalf("%s: result keys %v", w.name, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  *string  `json:"unit"`
			}
			if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(metrics), len(want))
			}
			for _, d := range want {
				m, ok := metrics[d.name]
				if !ok || m.Value == nil || m.Unit == nil || *m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or malformed", w.name, traced, d.name)
				}
			}
		}
	}
}
