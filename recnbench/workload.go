package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// workload is one named benchmark input: a corner-case traffic spec on
// one fabric, simulated under each policy in turn, and the figure its
// results render into. One operation is one figure-equivalent set of
// runs (every policy once, then the render).
type workload struct {
	name     string
	hosts    int
	topo     string // experiments.Run.Topo
	shards   int    // 0 = serial engine
	scale    float64
	policies []fabric.Policy
	// corner builds the traffic for a benchmark seed; seed 1 is the
	// committed figure's seed.
	corner func(seed int64, scale float64) (traffic.CornerCase, error)
	// bin is the reporting bin width the figure uses for a horizon.
	bin func(until sim.Time) sim.Time
	// render turns per-policy results (in policies order) into the
	// figure's text.
	render func(w *workload, cc traffic.CornerCase, res []*experiments.Result) (string, error)
	// reference runs the committed figure's own entry point (seed 1):
	// its per-policy reports and, where the figure renders through a
	// figure ID, the bytes recnsim prints for it ("" otherwise).
	reference func(w *workload) ([]stats.Report, string, error)
	// setupReps is how many times setup is measured per benchmark run.
	setupReps int
}

// workloads lists every workload the harness runs, those of
// BENCHMARK.json first; README.md gives the reason for each, and why
// fattree4k is run by hand rather than by the benchmark.
var workloads = []*workload{
	{
		name:      "fig2a",
		hosts:     64,
		scale:     0.05,
		policies:  fig2Policies,
		corner:    fig2aCorner,
		bin:       fig2Bin,
		render:    renderFig2a,
		reference: fig2aReference,
		setupReps: 31,
	},
	{
		name:      "fig2a-shards2",
		hosts:     64,
		shards:    2,
		scale:     0.05,
		policies:  fig2Policies,
		corner:    fig2aCorner,
		bin:       fig2Bin,
		render:    renderFig2a,
		reference: fig2aReference,
		setupReps: 31,
	},
	{
		name:      "fattree4k",
		hosts:     4096,
		topo:      "fattree",
		scale:     0.05, // at 0.03 and below RECN allocates no SAQ on this fabric
		policies:  []fabric.Policy{fabric.PolicyVOQnet, fabric.PolicyRECN},
		corner:    fattreeCorner,
		bin:       func(until sim.Time) sim.Time { return until / 100 },
		render:    renderSeries,
		reference: fattreeReference,
		setupReps: 5,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// fig2Policies is Figure 2's column order (it fixes the table bytes).
var fig2Policies = []fabric.Policy{
	fabric.PolicyVOQnet, fabric.Policy1Q, fabric.PolicyVOQsw, fabric.Policy4Q, fabric.PolicyRECN,
}

func fig2aCorner(seed int64, scale float64) (traffic.CornerCase, error) {
	c, err := traffic.Corner(1, 64, 64, scale)
	if err != nil {
		return c, err
	}
	c.Seed = seed
	return c, nil
}

// fig2Bin is the bin Figure 2 reports in: 160 bins over the horizon.
func fig2Bin(until sim.Time) sim.Time {
	if b := until / 160; b > 0 {
		return b
	}
	return sim.Microsecond
}

// fattreeCorner is the scaling figure's strided hotspot at 4096 hosts:
// 127 background sources at 10% load (one per 32 hosts, skipping the
// destination) and 128 hotspot sources aimed at host 2048 between 100
// and 400 paper-µs of a 600 µs run. experiments.ScalingRun does not
// take a seed, so the spec is rebuilt here from traffic's public type;
// the figure's own seed is 7, which benchmark seed 1 maps to.
func fattreeCorner(seed int64, scale float64) (traffic.CornerCase, error) {
	const hosts, stride = 4096, 32
	var random, hot []int
	for h := 0; h < hosts; h++ {
		switch h % stride {
		case 0:
			if h != hosts/2 {
				random = append(random, h)
			}
		case stride - 1:
			hot = append(hot, h)
		}
	}
	t := func(us float64) sim.Time { return sim.Time(us * scale * float64(sim.Microsecond)) }
	return traffic.CornerCase{
		Name:          "fattree4k",
		Hosts:         hosts,
		RandomSources: random,
		RandomRate:    0.1,
		HotSources:    hot,
		HotDest:       hosts / 2,
		HotStart:      t(100),
		HotEnd:        t(400),
		SimEnd:        t(600),
		MsgSize:       64,
		Seed:          6 + seed,
	}, nil
}

// runs is the workload's sweep: one experiments.Run per policy, in
// policies order, with the given shard count.
func (w *workload) runs(cc traffic.CornerCase, shards int) []experiments.Run {
	runs := make([]experiments.Run, len(w.policies))
	for i, p := range w.policies {
		runs[i] = experiments.Run{
			Hosts:      w.hosts,
			Policy:     p,
			PacketSize: cc.MsgSize,
			Topo:       w.topo,
			Key:        fmt.Sprintf("recnbench|%s|seed=%d", w.name, cc.Seed),
			Workload:   cc.Install,
			Until:      cc.SimEnd,
			Bin:        w.bin(cc.SimEnd),
			Shards:     shards,
		}
	}
	return runs
}

// options are the sweep options of every benchmark sweep: policies one
// after another, and no result cache.
func (w *workload) options() experiments.Options {
	return experiments.Options{Scale: w.scale, Parallelism: 1, NoCache: true, Shards: w.shards}
}

// renderFig2a renders Figure 2.a from the given results. experiments
// has no constructor for a figure over caller-supplied results, so the
// figure's frame (title, bin, row cap, notes) comes from Fig2 with an
// empty policy list, which simulates nothing; the seed-1 reference
// check proves the bytes equal recnsim's.
func renderFig2a(w *workload, _ traffic.CornerCase, res []*experiments.Result) (string, error) {
	o := w.options()
	o.Policies = []fabric.Policy{}
	fig, err := experiments.Fig2(1, o)
	if err != nil {
		return "", err
	}
	fig.Policies = w.policies
	fig.Results = res
	return experiments.RenderTables([]*experiments.Table{fig.Table()}), nil
}

// renderSeries renders the throughput series of every policy.
func renderSeries(w *workload, cc traffic.CornerCase, res []*experiments.Result) (string, error) {
	fig := &experiments.FigThroughput{
		Title:    fmt.Sprintf("%s: throughput, %s", w.name, cc.Name),
		Bin:      w.bin(cc.SimEnd),
		Policies: w.policies,
		Results:  res,
	}
	return experiments.RenderTables([]*experiments.Table{fig.Table()}), nil
}

// fig2aReference runs Figure 2.a through experiments.Fig2 — the code
// path behind `recnsim -fig 2a -j 1` (with -shards on the windowed
// workload) — and returns its reports and rendered bytes.
func fig2aReference(w *workload) ([]stats.Report, string, error) {
	fig, err := experiments.Fig2(1, w.options())
	if err != nil {
		return nil, "", err
	}
	reps := make([]stats.Report, len(fig.Results))
	for i, r := range fig.Results {
		reps[i] = r.Report()
	}
	return reps, experiments.RenderTables([]*experiments.Table{fig.Table()}), nil
}

// fattreeReference executes experiments.ScalingRun — the scaling
// figure's own run spec — for each policy.
func fattreeReference(w *workload) ([]stats.Report, string, error) {
	reps := make([]stats.Report, len(w.policies))
	for i, p := range w.policies {
		r, err := experiments.ScalingRun(w.hosts, p, experiments.Options{Scale: w.scale})
		if err != nil {
			return nil, "", err
		}
		res, err := r.Execute()
		if err != nil {
			return nil, "", err
		}
		reps[i] = res.Report()
	}
	return reps, "", nil
}

// digest is a stable hash of one run's report, memory accounting
// included: equal digests mean the simulated results did not move.
func digest(rep stats.Report) (uint64, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

func digests(reps []stats.Report) ([]uint64, error) {
	out := make([]uint64, len(reps))
	for i, r := range reps {
		d, err := digest(r)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// mismatches counts the positions where two digest lists differ.
func mismatches(a, b []uint64) int {
	if len(a) != len(b) {
		return max(len(a), len(b))
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// opResult is one untraced operation: every policy through
// experiments.Sweep, then the render.
type opResult struct {
	wall     time.Duration // sweep + render
	sweepCPU time.Duration // process CPU time of the sweep
	alloc    uint64        // bytes allocated during the operation
	digests  []uint64
	text     string
}

func (w *workload) untracedOp(cc traffic.CornerCase, shards int) (opResult, error) {
	runs := w.runs(cc, shards)
	o := w.options()
	o.Shards = shards
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	t0 := time.Now()
	results, err := experiments.Sweep(runs, o)
	if err != nil {
		return opResult{}, err
	}
	cpu := processCPU() - cpu0
	text, err := w.render(w, cc, results)
	if err != nil {
		return opResult{}, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	reps := make([]stats.Report, len(results))
	for i, r := range results {
		reps[i] = r.Report()
	}
	ds, err := digests(reps)
	return opResult{wall: wall, sweepCPU: cpu, alloc: m1.TotalAlloc - m0.TotalAlloc, digests: ds, text: text}, err
}

// setupOnce times what each policy run does before simulating, summed
// over policies: the topology and fabric.New (plus Shard on the
// windowed runtime), then the traffic install.
func (w *workload) setupOnce(cc traffic.CornerCase) (time.Duration, error) {
	var total time.Duration
	for _, r := range w.runs(cc, w.shards) {
		runtime.GC()
		t0 := time.Now()
		net, err := build(r)
		if err != nil {
			return 0, err
		}
		inj := newInjector(net)
		if err := cc.Install(inj); err != nil {
			return 0, err
		}
		total += time.Since(t0)
		if net.ShardCount() > 0 {
			net.FinishWindowed() // releases the shard workers
		}
	}
	return total, nil
}

// build resolves a run's fabric configuration and constructs it, on
// the windowed runtime when the run is sharded.
func build(r experiments.Run) (*fabric.Network, error) {
	cfg, err := r.Config()
	if err != nil {
		return nil, err
	}
	net, err := fabric.New(cfg)
	if err != nil {
		return nil, err
	}
	if r.Shards > 0 {
		if _, err := net.Shard(r.Shards); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// injector is the traffic.Network a corner case installs onto when the
// harness drives fabric directly. On a sharded network each host's
// stream runs on its shard engine with its own error slot, as in
// experiments' own adapter.
type injector struct {
	n    *fabric.Network
	eng  *sim.Engine
	err  *error
	herr []error // per-host slots of a sharded network
}

func newInjector(n *fabric.Network) injector {
	inj := injector{n: n, eng: n.Engine, err: new(error)}
	if n.ShardCount() > 0 {
		inj.herr = make([]error, n.Topology().NumHosts())
	}
	return inj
}

func (a injector) Hosts() int                      { return a.n.Topology().NumHosts() }
func (a injector) Now() sim.Time                   { return a.eng.Now() }
func (a injector) Schedule(at sim.Time, fn func()) { a.eng.Schedule(at, fn) }
func (a injector) Inject(src, dst, size int) {
	if err := a.n.InjectMessage(src, dst, size); err != nil && *a.err == nil {
		*a.err = err
	}
}

func (a injector) HostView(host int) traffic.Network {
	if a.n.ShardCount() == 0 {
		return a
	}
	return injector{n: a.n, eng: a.n.ShardEngine(a.n.HostShard(host)), err: &a.herr[host]}
}

func (a injector) ScheduleOn(caller, host int, at sim.Time, fn func()) {
	a.n.ScheduleRemote(caller, host, at, fn)
}

// firstErr returns the lowest-host injection error, if any.
func (a injector) firstErr() error {
	if *a.err != nil {
		return *a.err
	}
	for _, err := range a.herr {
		if err != nil {
			return err
		}
	}
	return nil
}
