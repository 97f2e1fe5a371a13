// Command recnbench is the repository's benchmark: it times the RECN
// figures end to end and layer by layer from outside the simulator,
// calling each module's public entry points, and checks that the
// simulated results do not move.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash recnbench/run.sh --workload fig2a --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, measured on untraced operations; with
// --trace 1 they are the per-layer ones from a separate traced
// operation, whose spans are also written as Chrome trace JSON under
// .bench_build/traces. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, from untraced
// operations (medians over the operations of one benchmark run).
// sim_us_per_s divides by process CPU time, not wall time: on a shared
// virtual machine the wall clock also counts time the hypervisor gives
// to other guests, which wall_s keeps and this rate leaves out.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_us_per_s", "us/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are the traced operation's per-layer metrics.
var perLayer = []metricDef{
	{"fabric.construct_ms", "ms"},
	{"traffic.install_ms", "ms"},
	{"sim.warmup_ms", "ms"},
	{"sim.hot_ms", "ms"},
	{"sim.post_ms", "ms"},
	{"sim.drain_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.pending_hw", "count"},
	{"sim.sched_pop_ns.shallow", "ns"},
	{"sim.sched_pop_ns.deep", "ns"},
	{"fabric.events_per_pkt", "events/pkt"},
	{"fabric.state_mb", "MB"},
	{"fabric.alloc_b_per_event.warmup", "B/event"},
	{"fabric.alloc_b_per_event.hot", "B/event"},
	{"gc.cycles", "count"},
	{"gc.cpu_frac", "frac"},
	{"fabric.saq_usage_us", "us"},
	{"fabric.shard_cpu_util", "frac"},
	{"fabric.shard_imbalance", "ratio"},
	{"cam.match_ns", "ns"},
	{"mempool.pushpop_ns", "ns"},
	{"recn.saq_allocs", "count"},
	{"recn.tokens_sent", "count"},
	{"recn.peak_saqs", "count"},
	{"host.calib_ns", "ns"},
	{"trace.overhead_frac", "frac"},
	{"fail_rate", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minOps is the fewest untraced operations a run measures, however
// short --seconds is, so each median has company.
const minOps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig2a, fig2a-shards2 or fattree4k")
	seed := fs.Int64("seed", 1, "traffic seed (1 = the committed figure's seed)")
	seconds := fs.Int("seconds", 10, "how long to repeat the untraced operation")
	traceFlag := fs.Int("trace", 0, "1 = report the per-layer metrics, 0 = the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "recnbench: need --workload (fig2a, fig2a-shards2, fattree4k), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	traceDir := filepath.Join(".bench_build", "traces")
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, traceDir, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "recnbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "recnbench: %v\n", err)
		return 1
	}
	return 0
}

// tally counts simulation runs attempted and failed.
type tally struct {
	attempted, failed int
	stderr            io.Writer
}

// check records n runs, of which bad failed, explaining failures.
func (t *tally) check(n, bad int, what string) {
	t.attempted += n
	if bad > 0 {
		t.failed += bad
		fmt.Fprintf(t.stderr, "recnbench: FAIL %s (%d of %d runs)\n", what, bad, n)
	}
}

// bench runs one benchmark: untraced operations for the time budget,
// set-up repetitions, the correctness checks, the traced operation and,
// when traced, the layer micro-loops, whose spans it writes to traceDir.
func bench(w *workload, seed int64, budget time.Duration, traced bool, traceDir string, stdout, stderr io.Writer) (result, error) {
	cc, err := w.corner(seed, w.scale)
	if err != nil {
		return result{}, err
	}
	acc := &tally{stderr: stderr}
	np := len(w.policies)
	fmt.Fprintf(stdout, "# recnbench %s seed=%d scale=%g shards=%d gomaxprocs=%d\n",
		w.name, seed, w.scale, w.shards, runtime.GOMAXPROCS(0))

	// Untraced operations: the end-to-end numbers. The first one only
	// grows the heap to its working size and is not timed; its digests
	// are the ones every later run of this seed must reproduce.
	warm, err := w.untracedOp(cc, w.shards)
	if err != nil {
		return result{}, fmt.Errorf("first operation: %w", err)
	}
	acc.attempted += np
	var ops []opResult
	start := time.Now()
	for i := 1; (len(ops) < minOps && i <= 4*minOps) || time.Since(start) < budget; i++ {
		op, err := w.untracedOp(cc, w.shards)
		if err != nil {
			acc.check(np, np, fmt.Sprintf("operation %d: %v", i, err))
			continue
		}
		acc.check(np, mismatches(op.digests, warm.digests), fmt.Sprintf("operation %d digests differ from operation 0", i))
		ops = append(ops, op)
		fmt.Fprintf(stderr, "recnbench: operation %d: wall %.3fs sweep cpu %.3fs alloc %.1fMB\n",
			i, op.wall.Seconds(), op.sweepCPU.Seconds(), float64(op.alloc)/(1<<20))
	}
	if len(ops) == 0 {
		return result{}, errors.New("no timed operation succeeded")
	}
	rss := peakRSS()
	printDigests(stdout, w, seed, warm.digests)

	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		d, err := w.setupOnce(cc)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	if w.shards > 1 {
		one, err := w.untracedOp(cc, 1)
		bad := np
		if err == nil {
			bad = mismatches(one.digests, warm.digests)
		}
		acc.check(np, bad, fmt.Sprintf("shards=%d digests differ from shards=1 (err=%v)", w.shards, err))
	}
	if seed == 1 {
		reps, text, err := w.reference(w)
		bad := np
		if err == nil {
			var ref []uint64
			if ref, err = digests(reps); err == nil {
				bad = mismatches(ref, warm.digests)
				if text != "" && text != warm.text {
					bad = max(bad, 1)
					err = errors.New("rendered figure bytes differ")
				}
			}
		}
		acc.check(np, bad, fmt.Sprintf("seed 1 differs from the committed figure's entry point (err=%v)", err))
	}

	t := newTracer()
	root := t.begin("operation "+w.name, 0)
	tr, err := w.tracedOp(t, root, cc)
	t.end(root, nil)
	if err != nil {
		acc.check(np, np, fmt.Sprintf("traced operation: %v", err))
	} else {
		acc.check(np, mismatches(tr.digests, warm.digests), "traced reports differ from experiments.Run.Execute's")
		if tr.text != warm.text {
			acc.check(0, 1, "traced render differs from the untraced one")
		}
		for i, qerr := range tr.quiesceErrs {
			if qerr != nil {
				acc.check(0, 1, fmt.Sprintf("%v drain: %v", w.policies[i], qerr))
			}
		}
	}

	out := result{Attempted: acc.attempted, Failed: acc.failed, Metrics: map[string]metric{}}
	out.Correct = out.Failed == 0
	set := func(name string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	if !traced {
		var walls, sims, allocs []float64
		simUs := float64(len(w.policies)) * cc.SimEnd.Micros()
		for _, op := range ops {
			walls = append(walls, op.wall.Seconds())
			sims = append(sims, simUs/op.sweepCPU.Seconds())
			allocs = append(allocs, float64(op.alloc)/(1<<20))
		}
		set("wall_s", median(walls))
		set("setup_s", median(setups))
		set("sim_us_per_s", median(sims))
		set("peak_rss_mb", float64(rss)/(1<<20))
		set("alloc_mb", median(allocs))
		return out, nil
	}
	if err != nil {
		return result{}, fmt.Errorf("traced operation: %w", err)
	}

	L := tr.layers
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	set("fabric.construct_ms", ms(L.construct))
	set("traffic.install_ms", ms(L.install))
	set("sim.warmup_ms", ms(L.warmup))
	set("sim.hot_ms", ms(L.hot))
	set("sim.post_ms", ms(L.post))
	set("sim.drain_ms", ms(L.drain))
	set("experiments.render_ms", ms(L.render))
	set("sim.events", float64(L.events))
	set("sim.events_per_s", ratio(float64(L.events), L.simulate().Seconds()))
	set("sim.pending_hw", float64(L.pendingHW))
	set("fabric.events_per_pkt", ratio(float64(L.events), float64(L.delivered)))
	set("fabric.state_mb", float64(L.stateBytes)/(1<<20))
	set("fabric.alloc_b_per_event.warmup", ratio(float64(L.allocWarmup), float64(L.eventsWarmup)))
	set("fabric.alloc_b_per_event.hot", ratio(float64(L.allocHot), float64(L.eventsHot)))
	set("gc.cycles", float64(L.gcCycles))
	set("gc.cpu_frac", L.gcCPUFrac)
	set("fabric.saq_usage_us", float64(L.saqUsage.Nanoseconds())/1e3)
	set("fabric.shard_cpu_util", ratio(L.simCPU.Seconds(), L.simulate().Seconds()*float64(L.engines)))
	set("fabric.shard_imbalance", L.imbalance)
	set("recn.saq_allocs", float64(L.recnAllocs))
	set("recn.tokens_sent", float64(L.recnTokens))
	set("recn.peak_saqs", float64(L.peakSAQs))
	var walls []float64
	for _, op := range ops {
		walls = append(walls, op.wall.Seconds())
	}
	set("trace.overhead_frac", ratio(L.comparableDur.Seconds(), median(walls))-1)

	// Layer micro-loops, after the workload, shaped by its trace.
	micro := t.begin("micro-loops", 0)
	loop := func(name string, f func() float64) float64 {
		id := t.begin(name, micro)
		v := medianOf(microReps, f)
		t.end(id, map[string]any{"median": v})
		return v
	}
	set("sim.sched_pop_ns.shallow", loop("sim.Engine ScheduleArg+pop shallow", func() float64 { return schedPopNs(shallowHeap, seed) }))
	set("sim.sched_pop_ns.deep", loop("sim.Engine ScheduleArg+pop deep", func() float64 { return schedPopNs(deepHeap, seed) }))
	set("cam.match_ns", loop("cam.Table.Match", func() float64 { return camMatchNs(L.peakPortSAQs, seed) }))
	set("mempool.pushpop_ns", loop("mempool.Queue.Push+Pop", pushPopNs))
	set("host.calib_ns", loop("host calibration loop", calibNs))
	t.end(micro, nil)
	set("fail_rate", ratio(float64(out.Failed), float64(out.Attempted)))

	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	meta := map[string]any{"workload": w.name, "seed": seed, "scale": w.scale, "gomaxprocs": runtime.GOMAXPROCS(0)}
	if err := t.writeChrome(path, meta); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(stdout, "# trace written to %s (open in ui.perfetto.dev)\n", path)
	return out, nil
}

// printDigests reports each policy's result digest beside the metrics,
// so two commits' runs show whether simulated results moved.
func printDigests(w io.Writer, wl *workload, seed int64, ds []uint64) {
	fmt.Fprintf(w, "# digests %s seed=%d:", wl.name, seed)
	for i, d := range ds {
		fmt.Fprintf(w, " %v=%016x", wl.policies[i], d)
	}
	fmt.Fprintln(w)
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("recnbench: undeclared metric " + name)
}
