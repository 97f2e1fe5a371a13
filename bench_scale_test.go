package repro

// Memory-scaling benchmark: the measured curve behind BENCH_PR11.json —
// fabric construction time, event rate, modeled control-state footprint
// and real process memory for the fat-tree scaling hotspot at 512, 1024
// and 4096 hosts under VOQnet (the O(hosts)-state policy the lazy
// fabric exists for).
//
// Usage:
//
//	SCALE_BENCH_JSON=BENCH_PR11.json go test -run TestEmitScaleBench .
//	SCALE_BENCH_BASELINE=BENCH_PR11.json go test -run TestScaleBenchGuard .
//
// The guard re-measures the 4096-host point and fails if peak RSS
// exceeds the recorded budget, if the event rate falls below
// SCALE_BENCH_RATIO (default 0.9) of the recorded rate, or if the
// deterministic state model diverges from the recorded bytes. Without
// the environment variables both tests skip (TestScaleBenchSmoke covers
// the measurement path unconditionally).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
)

// scaleBenchScale is the time compression every recorded point uses;
// event rates at different scales are not comparable, so the guard
// refuses baselines recorded at any other value.
const scaleBenchScale = 0.02

type scalePoint struct {
	Hosts             int     `json:"hosts"`
	Policy            string  `json:"policy"`
	ConstructionNs    int64   `json:"construction_ns"`
	RunNs             int64   `json:"run_ns"`
	Events            uint64  `json:"events"`
	EventsPerSec      float64 `json:"events_per_sec"`
	StateBytes        int64   `json:"state_bytes"`
	BytesPerPort      float64 `json:"bytes_per_port"`
	EagerModelBytes   int64   `json:"eager_state_bytes"`
	EagerBytesPerPort float64 `json:"eager_bytes_per_port"`
	LazyEagerRatio    float64 `json:"lazy_eager_ratio"`
	HeapBytes         uint64  `json:"heap_bytes"`
	PeakRSSBytes      int64   `json:"peak_rss_bytes"`
}

type scaleBench struct {
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Scale      float64 `json:"scale"`
	Topo       string  `json:"topo"`
	// PeakRSSBudgetBytes is the guard's ceiling: 2× the peak RSS
	// measured when the file was recorded (slack for allocator and CI
	// variance; a lazy-state regression blows far past 2×).
	PeakRSSBudgetBytes int64        `json:"peak_rss_budget_bytes"`
	Points             []scalePoint `json:"points"`
}

func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // linux reports KB
}

// measureScalePoint builds and runs the scaling hotspot once at one
// network size. Construction is timed separately from the run; heap
// and RSS are sampled after the run with the network still live, so
// the materialized state is in the numbers.
func measureScalePoint(hosts int, scale float64) (scalePoint, error) {
	r, err := experiments.ScalingRun(hosts, fabric.PolicyVOQnet, Options{Scale: scale})
	if err != nil {
		return scalePoint{}, err
	}
	cfg, err := r.Config()
	if err != nil {
		return scalePoint{}, err
	}
	t0 := time.Now()
	net, err := fabric.New(cfg)
	if err != nil {
		return scalePoint{}, err
	}
	build := time.Since(t0)
	_ = net // construction probe only; the run builds its own fabric

	t0 = time.Now()
	res, err := r.Execute()
	if err != nil {
		return scalePoint{}, err
	}
	elapsed := time.Since(t0)
	if res.Mem == nil {
		return scalePoint{}, fmt.Errorf("%d hosts: run carries no memory accounting", hosts)
	}
	eager, err := r.EagerMemModel()
	if err != nil {
		return scalePoint{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return scalePoint{
		Hosts:             hosts,
		Policy:            fabric.PolicyVOQnet.String(),
		ConstructionNs:    build.Nanoseconds(),
		RunNs:             elapsed.Nanoseconds(),
		Events:            res.Events,
		EventsPerSec:      float64(res.Events) / (elapsed.Seconds() + 1e-9),
		StateBytes:        res.Mem.StateBytes,
		BytesPerPort:      res.Mem.BytesPerPort(),
		EagerModelBytes:   eager.StateBytes,
		EagerBytesPerPort: eager.BytesPerPort(),
		LazyEagerRatio:    float64(res.Mem.StateBytes) / float64(eager.StateBytes),
		HeapBytes:         ms.HeapAlloc,
		PeakRSSBytes:      peakRSSBytes(),
	}, nil
}

// TestEmitScaleBench records the curve to $SCALE_BENCH_JSON. Sizes run
// ascending so each point's peak-RSS sample is dominated by its own
// network, not a larger predecessor's.
func TestEmitScaleBench(t *testing.T) {
	path := os.Getenv("SCALE_BENCH_JSON")
	if path == "" {
		t.Skip("set SCALE_BENCH_JSON=<path> to emit the scaling benchmark curve")
	}
	out := scaleBench{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      scaleBenchScale,
		Topo:       "fattree",
	}
	for _, hosts := range []int{512, 1024, 4096} {
		p, err := measureScalePoint(hosts, scaleBenchScale)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d hosts: build %v, %.0f events/s, %.0f B/port lazy vs %.0f eager (ratio %.3f), RSS %d MB",
			hosts, time.Duration(p.ConstructionNs), p.EventsPerSec,
			p.BytesPerPort, p.EagerBytesPerPort, p.LazyEagerRatio, p.PeakRSSBytes>>20)
		out.Points = append(out.Points, p)
	}
	out.PeakRSSBudgetBytes = 2 * out.Points[len(out.Points)-1].PeakRSSBytes
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScaleBenchGuard gates the 4096-host point against the recorded
// baseline.
func TestScaleBenchGuard(t *testing.T) {
	path := os.Getenv("SCALE_BENCH_BASELINE")
	if path == "" {
		t.Skip("set SCALE_BENCH_BASELINE=<baseline.json> to gate the 4k scaling point")
	}
	ratio := 0.9
	if s := os.Getenv("SCALE_BENCH_RATIO"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			t.Fatalf("SCALE_BENCH_RATIO %q: want a positive float", s)
		}
		ratio = v
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var base scaleBench
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("baseline %s: %v", path, err)
	}
	if base.Scale != scaleBenchScale {
		t.Fatalf("baseline scale %.3f != current %.3f: rates are not comparable", base.Scale, scaleBenchScale)
	}
	var rec *scalePoint
	for i := range base.Points {
		if base.Points[i].Hosts == 4096 {
			rec = &base.Points[i]
		}
	}
	if rec == nil {
		t.Fatalf("baseline %s has no 4096-host point", path)
	}
	// The recorded file must itself satisfy the bytes/port acceptance
	// criterion — a regenerated baseline cannot quietly relax it.
	if rec.LazyEagerRatio > 0.25 {
		t.Errorf("recorded 4k lazy/eager ratio %.3f exceeds the 25%% budget", rec.LazyEagerRatio)
	}
	got, err := measureScalePoint(4096, scaleBenchScale)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4k hosts: %.0f events/s (recorded %.0f), RSS %d MB (budget %d MB), state %d B (recorded %d B)",
		got.EventsPerSec, rec.EventsPerSec, got.PeakRSSBytes>>20, base.PeakRSSBudgetBytes>>20,
		got.StateBytes, rec.StateBytes)
	// The state model is deterministic: same workload, same bytes.
	if got.StateBytes != rec.StateBytes {
		t.Errorf("modeled state %d B differs from recorded %d B (memory model drifted)", got.StateBytes, rec.StateBytes)
	}
	if base.PeakRSSBudgetBytes > 0 && got.PeakRSSBytes > base.PeakRSSBudgetBytes {
		t.Errorf("peak RSS %d bytes exceeds recorded budget %d", got.PeakRSSBytes, base.PeakRSSBudgetBytes)
	}
	if floor := ratio * rec.EventsPerSec; got.EventsPerSec < floor {
		t.Errorf("4k event rate %.0f fell below %.0f (%.2f × recorded %.0f)",
			got.EventsPerSec, floor, ratio, rec.EventsPerSec)
	}
}

// TestScaleBenchSmoke keeps the measurement path itself under ordinary
// `go test ./...`: a small point must produce a complete, internally
// consistent record that round-trips through the JSON schema.
func TestScaleBenchSmoke(t *testing.T) {
	p, err := measureScalePoint(512, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if p.Events == 0 || p.EventsPerSec <= 0 || p.ConstructionNs <= 0 {
		t.Fatalf("degenerate measurement: %+v", p)
	}
	if p.StateBytes <= 0 || p.EagerModelBytes <= p.StateBytes {
		t.Fatalf("no lazy win at 512 hosts: lazy %d, eager %d", p.StateBytes, p.EagerModelBytes)
	}
	if p.LazyEagerRatio > 0.25 {
		t.Errorf("512-host hotspot ratio %.3f exceeds the 25%% budget", p.LazyEagerRatio)
	}
	path := t.TempDir() + "/bench.json"
	data, err := json.MarshalIndent(scaleBench{Scale: 0.01, Topo: "fattree", Points: []scalePoint{p}}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var back scaleBench
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 1 || back.Points[0] != p {
		t.Fatalf("round trip mangled the point: %+v vs %+v", back.Points[0], p)
	}
}
