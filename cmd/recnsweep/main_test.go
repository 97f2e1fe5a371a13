package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Flag validation must fail before any simulation starts, naming the
// offending flag (the style of recnsim's -policies check).
func TestValidateFlagsRejectsBadWorkerCounts(t *testing.T) {
	for _, j := range []int{0, -1, -8} {
		_, _, err := validateFlags(sweepFlags{sweep: "saqs", j: j})
		if err == nil {
			t.Errorf("validateFlags(j=%d) accepted", j)
			continue
		}
		if !strings.Contains(err.Error(), "-j") {
			t.Errorf("validateFlags(j=%d) error %q does not name -j", j, err)
		}
	}
}

func TestValidateFlagsRejectsNegativeShards(t *testing.T) {
	_, _, err := validateFlags(sweepFlags{sweep: "saqs", j: 1, shards: -2})
	if err == nil {
		t.Fatal("validateFlags accepted a negative shard count")
	}
	if !strings.Contains(err.Error(), "-shards") {
		t.Errorf("error %q does not name -shards", err)
	}
}

// Latency figures meter their windows inside the per-shard delivery
// meters, so every sweep — the latency figures and the `all` and
// `figures` selections that include them — accepts -shards.
func TestValidateFlagsAcceptsShardsWithLatencyFigures(t *testing.T) {
	if _, _, err := validateFlags(sweepFlags{sweep: "lat1", j: 1, shards: 2}); err != nil {
		t.Errorf("validateFlags(shards=2) = %v", err)
	}
}

// A bad topology name must be rejected before anything simulates, and
// every accepted name (plus the empty per-figure default) must pass.
func TestValidateFlagsTopology(t *testing.T) {
	_, _, err := validateFlags(sweepFlags{sweep: "saqs", j: 1, topo: "hypercube"})
	if err == nil {
		t.Fatal("validateFlags accepted topology \"hypercube\"")
	}
	if !strings.Contains(err.Error(), "-topo") || !strings.Contains(err.Error(), "fattree") {
		t.Errorf("error %q does not name -topo and the valid names", err)
	}
	for _, topo := range []string{"", "min", "fattree", "fat-tree", "mesh", "FatTree"} {
		if _, _, err := validateFlags(sweepFlags{sweep: "saqs", j: 1, topo: topo}); err != nil {
			t.Errorf("validateFlags(topo=%q) = %v", topo, err)
		}
	}
}

func TestValidateFlagsRejectsUnwritableCacheDir(t *testing.T) {
	// A path under a regular file can never become a directory, so this
	// fails even when the tests run as root (unlike permission bits).
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := validateFlags(sweepFlags{sweep: "saqs", j: 1, cacheDir: filepath.Join(file, "sub")})
	if err == nil {
		t.Fatal("validateFlags accepted a cache dir under a regular file")
	}
	if !strings.Contains(err.Error(), "-cache") {
		t.Errorf("error %q does not name -cache", err)
	}
}

func TestValidateFlagsAccepts(t *testing.T) {
	if _, _, err := validateFlags(sweepFlags{sweep: "saqs", j: 1}); err != nil {
		t.Errorf("validateFlags(saqs, j=1) = %v", err)
	}
	dir := filepath.Join(t.TempDir(), "cache")
	if _, _, err := validateFlags(sweepFlags{sweep: "all", j: 8, shards: 4, cacheDir: dir}); err != nil {
		t.Errorf("validateFlags(all, j=8, shards=4, cache=%q) = %v", dir, err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("cache dir not created: %v, %v", fi, err)
	}
}

// Every rejection names its flag, and a rejected flag set creates no
// cache directory (nothing runs before validation passes).
func TestValidateFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		name, flag string
		f          sweepFlags
	}{
		{"unknown sweep", "-sweep", sweepFlags{sweep: "9z", j: 1}},
		{"negative scale", "-scale", sweepFlags{sweep: "2a", j: 1, scale: -1}},
		{"NaN scale", "-scale", sweepFlags{sweep: "2a", j: 1, scale: math.NaN()}},
		{"infinite scale", "-scale", sweepFlags{sweep: "2a", j: 1, scale: math.Inf(1)}},
		{"overflowing scale", "-scale", sweepFlags{sweep: "2a", j: 1, scale: 1e30}},
		{"counts on markers", "-counts", sweepFlags{sweep: "markers", j: 1, counts: "1,2"}},
		{"counts on a figure", "-counts", sweepFlags{sweep: "2a", j: 1, counts: "4"}},
		{"kb on saqs", "-kb", sweepFlags{sweep: "saqs", j: 1, kb: "8"}},
		{"malformed counts", "-counts", sweepFlags{sweep: "saqs", j: 1, counts: "1,x"}},
		{"zero count", "-counts", sweepFlags{sweep: "a1", j: 1, counts: "0"}},
		{"negative kb", "-kb", sweepFlags{sweep: "threshold", j: 1, kb: "-8"}},
	} {
		dir := filepath.Join(t.TempDir(), "cache")
		tc.f.cacheDir = dir
		_, _, err := validateFlags(tc.f)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: cache dir created before the rejection", tc.name)
		}
	}
}

// -counts and -kb are parsed up front for the sweeps that take them,
// -kb converted to bytes.
func TestValidateFlagsParsesLists(t *testing.T) {
	for _, tc := range []struct {
		f          sweepFlags
		counts, kb []int
	}{
		{sweepFlags{sweep: "saqs", j: 1, counts: "1, 8"}, []int{1, 8}, nil},
		{sweepFlags{sweep: "a1", j: 1, counts: "2"}, []int{2}, nil},
		{sweepFlags{sweep: "threshold", j: 1, kb: "4,16"}, nil, []int{4096, 16384}},
		{sweepFlags{sweep: "a2", j: 1, kb: "8"}, nil, []int{8192}},
		{sweepFlags{sweep: "saqs", j: 1}, nil, nil},
	} {
		counts, kb, err := validateFlags(tc.f)
		if err != nil {
			t.Errorf("%+v: %v", tc.f, err)
			continue
		}
		if !slices.Equal(counts, tc.counts) || !slices.Equal(kb, tc.kb) {
			t.Errorf("%+v: counts %v kb %v, want %v %v", tc.f, counts, kb, tc.counts, tc.kb)
		}
	}
}
