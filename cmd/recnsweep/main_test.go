package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Flag validation must fail before any simulation starts, naming the
// offending flag (the style of recnsim's -policies check).
func TestValidateFlagsRejectsBadWorkerCounts(t *testing.T) {
	for _, j := range []int{0, -1, -8} {
		err := validateFlags(j, 0, "", "")
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
	err := validateFlags(1, -2, "", "")
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
	if err := validateFlags(1, 2, "", ""); err != nil {
		t.Errorf("validateFlags(shards=2) = %v", err)
	}
}

// A bad topology name must be rejected before anything simulates, and
// every accepted name (plus the empty per-figure default) must pass.
func TestValidateFlagsTopology(t *testing.T) {
	err := validateFlags(1, 0, "", "hypercube")
	if err == nil {
		t.Fatal("validateFlags accepted topology \"hypercube\"")
	}
	if !strings.Contains(err.Error(), "-topo") || !strings.Contains(err.Error(), "fattree") {
		t.Errorf("error %q does not name -topo and the valid names", err)
	}
	for _, topo := range []string{"", "min", "fattree", "fat-tree", "mesh", "FatTree"} {
		if err := validateFlags(1, 0, "", topo); err != nil {
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
	err := validateFlags(1, 0, filepath.Join(file, "sub"), "")
	if err == nil {
		t.Fatal("validateFlags accepted a cache dir under a regular file")
	}
	if !strings.Contains(err.Error(), "-cache") {
		t.Errorf("error %q does not name -cache", err)
	}
}

func TestValidateFlagsAccepts(t *testing.T) {
	if err := validateFlags(1, 0, "", ""); err != nil {
		t.Errorf("validateFlags(1, 0, \"\") = %v", err)
	}
	dir := filepath.Join(t.TempDir(), "cache")
	if err := validateFlags(8, 4, dir, ""); err != nil {
		t.Errorf("validateFlags(8, 4, %q) = %v", dir, err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("cache dir not created: %v, %v", fi, err)
	}
}
