package repro

import (
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fabric"
)

// The 4096-host fat-tree scaling hotspot under VOQnet (the
// O(hosts)-state policy the lazy fabric exists for) at scale 0.02.
// The state bytes come from the deterministic memory model, so they
// are exact; the RSS budget is twice the peak measured when lazy
// state landed, slack a lazy-state regression blows far past.
const (
	footprint4kStateBytes = 131126960
	footprint4kMaxRatio   = 0.25
	footprint4kRSSBudget  = 618332160
)

func TestScaling4kFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-host run; skipped under -short")
	}
	r, err := experiments.ScalingRun(4096, fabric.PolicyVOQnet, Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem == nil {
		t.Fatal("run result carries no memory accounting")
	}
	if res.Mem.StateBytes != footprint4kStateBytes {
		t.Errorf("modeled state %d B, want %d B (memory model drifted)", res.Mem.StateBytes, footprint4kStateBytes)
	}
	eager, err := r.EagerMemModel()
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(res.Mem.StateBytes) / float64(eager.StateBytes); ratio > footprint4kMaxRatio {
		t.Errorf("lazy/eager state ratio %.4f exceeds %.2f: %d of %d bytes",
			ratio, footprint4kMaxRatio, res.Mem.StateBytes, eager.StateBytes)
	}
	// Maxrss is in KiB on Linux only, and the race detector's shadow
	// memory makes any RSS figure meaningless.
	if runtime.GOOS != "linux" || raceEnabled() {
		return
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	rss := ru.Maxrss * 1024
	t.Logf("peak RSS %d MB (budget %d MB)", rss>>20, footprint4kRSSBudget>>20)
	if rss > footprint4kRSSBudget {
		t.Errorf("peak RSS %d B exceeds the %d B budget", rss, footprint4kRSSBudget)
	}
}

func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
