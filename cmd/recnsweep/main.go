// Command recnsweep runs parameter sweeps over the RECN design knobs —
// SAQ count per port, congestion-detection threshold, token priority
// boost and in-order markers (the ablations A1–A4 in DESIGN.md) — and
// full-evaluation sweeps over every figure and table. Independent runs
// fan across -j workers and results are reassembled in spec order, so
// output is byte-identical at any parallelism.
//
// Usage:
//
//	recnsweep -sweep saqs [-counts 1,2,4,8,16] [-scale 0.25] [-j 8]
//	recnsweep -sweep threshold [-kb 4,8,16,32,64]
//	recnsweep -sweep boost
//	recnsweep -sweep markers
//	recnsweep -sweep 2a                  # any figure ID (see -sweep list)
//	recnsweep -sweep all -j $(nproc) [-cache ~/.cache/recn]
//
// With -cache DIR, run results are cached by a stable hash of each
// run's spec: re-rendering after changing one knob re-simulates only
// the runs whose spec changed. -no-cache bypasses the cache.
//
// Ctrl-C (or SIGTERM) interrupts a sweep cleanly: in-flight runs stop
// at the next cancellation point and recnsweep exits 130 without
// printing partial tables.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro"
	"repro/internal/prof"
)

func main() {
	var (
		sweep      = flag.String("sweep", "saqs", "sweep to run: saqs, threshold, boost, markers, all, list, or any figure ID (2a, lat1, ...)")
		countsFlag = flag.String("counts", "", "comma-separated SAQ counts (saqs sweep)")
		kbFlag     = flag.String("kb", "", "comma-separated detection thresholds in KB (threshold sweep)")
		scale      = flag.Float64("scale", 0.25, "time scale (1.0 = paper durations)")
		j          = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers (≥ 1)")
		shards     = flag.Int("shards", 0, "shard each simulation across this many cores (windowed runtime; sharded runs bypass the cache; 0 = serial)")
		cache      = flag.String("cache", "", "run-result cache directory (created if missing)")
		noCache    = flag.Bool("no-cache", false, "bypass the run-result cache")
		chk        = flag.Bool("check", false, "enable the runtime invariant checker on every run (checked runs bypass the cache)")
		thrSpec    = flag.String("throttle", "", "throttle policy tunables, e.g. 'mark=16384,min=100' (defaults apply to omitted keys)")
		arnSpec    = flag.String("arn", "", "arn policy tunables, e.g. 'on=16384,off=4096'")
		topo       = flag.String("topo", "", "network topology where the figure allows it: min, fattree, mesh (default per figure; 'list' prints the names and exits)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit (pprof format)")
	)
	flag.Parse()
	if *sweep == "list" {
		fmt.Println(strings.Join(repro.FigureIDs(), "\n"))
		return
	}
	if *topo == "list" {
		fmt.Println(strings.ReplaceAll(repro.TopologyNames(), ", ", "\n"))
		return
	}
	// All flag validation happens before profiling or any simulation
	// starts.
	counts, kb, err := validateFlags(sweepFlags{
		sweep: *sweep, counts: *countsFlag, kb: *kbFlag, scale: *scale,
		j: *j, shards: *shards, cacheDir: *cache, topo: *topo,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "recnsweep: %v\n", err)
		os.Exit(2)
	}
	if _, err := repro.ValidatePolicyOptions(nil, *thrSpec, *arnSpec); err != nil {
		fmt.Fprintf(os.Stderr, "recnsweep: %v\n", err)
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "recnsweep: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "recnsweep: %v\n", err)
			os.Exit(1)
		}
	}()
	// Ctrl-C/SIGTERM cancels the sweep context: workers stop picking up
	// runs, in-flight serial runs stop at the next engine chunk, and the
	// sweep returns ErrCanceled (handled by fail below).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	o := repro.Options{Scale: *scale, Parallelism: *j, Shards: *shards, CacheDir: *cache, NoCache: *noCache, Check: *chk, Context: ctx, ThrottleSpec: *thrSpec, ARNSpec: *arnSpec, Topo: *topo}
	// A failed cache write does not fail a sweep (the result is fresh
	// and correct), but it must not pass silently either: without the
	// warning a full disk or revoked permission would quietly
	// re-simulate everything on every future sweep.
	o.OnCacheSummary = func(s repro.CacheSummary) {
		if s.StoreFailures > 0 {
			fmt.Fprintf(os.Stderr, "recnsweep: warning: %d cache write(s) failed (first: %v); results are correct but will re-simulate next sweep\n",
				s.StoreFailures, s.FirstStoreErr)
		}
	}

	if *sweep == "all" || *sweep == "figures" {
		for _, fid := range repro.FigureIDs() {
			tables, err := repro.Reproduce(fid, o)
			if err != nil {
				fail(fmt.Sprintf("%s: ", fid), err)
			}
			printTables(tables)
		}
		return
	}

	// Custom sweep values go through the experiment package's
	// list-taking entry points. Any figure ID runs directly:
	// `recnsweep -sweep 2a` produces the same bytes the daemon's
	// results endpoint serves for a {"figures":["2a"]} submission.
	var tables []*repro.Table
	switch {
	case counts != nil:
		tables, err = repro.SweepSAQs(o, counts)
	case kb != nil:
		tables, err = repro.SweepThresholds(o, kb)
	default:
		tables, err = repro.Reproduce(sweepFigure(*sweep), o)
	}
	if err != nil {
		fail("", err)
	}
	printTables(tables)
}

// fail reports a sweep error and exits: 130 (the conventional
// 128+SIGINT code) when the sweep was interrupted, 1 otherwise.
func fail(prefix string, err error) {
	fmt.Fprintf(os.Stderr, "recnsweep: %s%v\n", prefix, err)
	if errors.Is(err, repro.ErrCanceled) {
		os.Exit(130)
	}
	os.Exit(1)
}

// sweepFigure maps the named knob sweeps to their ablation figure IDs;
// any other sweep name is already a figure ID.
func sweepFigure(sweep string) string {
	switch sweep {
	case "saqs":
		return "a1"
	case "threshold":
		return "a2"
	case "boost":
		return "a3"
	case "markers":
		return "a4"
	}
	return sweep
}

// sweepFlags are the command-line values validateFlags checks.
type sweepFlags struct {
	sweep, counts, kb string
	scale             float64
	j, shards         int
	cacheDir, topo    string
}

// validateFlags rejects an unknown sweep, a bad worker count, shard
// count, scale or topology name, a -counts/-kb list that is malformed
// or given to a sweep that ignores it, and an unusable cache
// directory, naming the offending flag; nothing profiles or simulates
// until all pass. It returns the parsed -counts and -kb values (nil
// when unset), -kb already in bytes.
func validateFlags(f sweepFlags) (counts, kb []int, err error) {
	id := sweepFigure(f.sweep)
	if id != "all" && id != "figures" && !repro.KnownFigure(id) {
		return nil, nil, fmt.Errorf("-sweep %q: unknown sweep (want saqs, threshold, boost, markers, all, list, or a figure ID: %s)",
			f.sweep, strings.Join(repro.FigureIDs(), ", "))
	}
	if f.j < 1 {
		return nil, nil, fmt.Errorf("-j %d: want at least 1 worker", f.j)
	}
	if !repro.ValidTopology(f.topo) {
		return nil, nil, fmt.Errorf("-topo %q: unknown topology (valid: %s; -topo list prints them)", f.topo, repro.TopologyNames())
	}
	if f.shards < 0 {
		return nil, nil, fmt.Errorf("-shards %d: want 0 (serial) or a positive shard count", f.shards)
	}
	if err := repro.ValidScale(f.scale); err != nil {
		return nil, nil, fmt.Errorf("-scale: %w", err)
	}
	if f.counts != "" && id != "a1" {
		return nil, nil, errors.New("-counts: only -sweep saqs (or a1) takes it")
	}
	if f.kb != "" && id != "a2" {
		return nil, nil, errors.New("-kb: only -sweep threshold (or a2) takes it")
	}
	if counts, err = parseInts("-counts", f.counts, 1); err != nil {
		return nil, nil, err
	}
	if kb, err = parseInts("-kb", f.kb, 1024); err != nil {
		return nil, nil, err
	}
	if f.cacheDir != "" {
		if _, err := repro.OpenRunCache(f.cacheDir); err != nil {
			return nil, nil, fmt.Errorf("-cache: %w", err)
		}
	}
	return counts, kb, nil
}

func printTables(tables []*repro.Table) {
	repro.FprintTables(os.Stdout, tables)
}

// parseInts parses one flag's comma-separated list of positive
// integers, each multiplied by mult; an empty value yields nil.
func parseInts(flagName, s string, mult int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s: bad value %q (want positive integers)", flagName, part)
		}
		out = append(out, v*mult)
	}
	return out, nil
}
