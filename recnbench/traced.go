package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// span is one timed call into a layer, recorded from the harness
// around the public entry point it calls.
type span struct {
	name       string
	id, parent int
	start, end time.Duration // since the tracer's origin
	args       map[string]any
}

// tracer keeps spans in memory; writeChrome exports them at exit.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, start: time.Since(t.origin)})
	return len(t.spans)
}

// end closes span id, attaches args, and returns its duration.
func (t *tracer) end(id int, args map[string]any) time.Duration {
	s := &t.spans[id-1]
	s.end = time.Since(t.origin)
	s.args = args
	return s.end - s.start
}

// writeChrome writes the spans as Chrome trace_event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		evs[i] = event{
			Name: s.name, Cat: "recnbench", Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layers holds the traced operation's per-layer figures, summed over
// the workload's policies unless a field says otherwise.
type layers struct {
	construct, install, warmup, hot, post, drain, render time.Duration

	events        uint64 // dispatched up to the horizon
	delivered     uint64
	pendingHW     int   // max over policies and engines
	stateBytes    int64 // max over policies
	allocWarmup   uint64
	eventsWarmup  uint64
	allocHot      uint64
	eventsHot     uint64
	gcCycles      uint32
	gcCPUFrac     float64
	simCPU        time.Duration // process CPU over the simulate slices
	engines       int           // shard engines (1 on the serial engine)
	imbalance     float64       // max over policies of max/mean shard events
	saqUsage      time.Duration // per SAQUsage call, RECN network at horizon
	recnAllocs    uint64
	recnTokens    uint64
	peakSAQs      int           // network-wide SAQ total, sampler peak
	peakPortSAQs  int           // per-port SAQ peak (ingress or egress)
	comparableDur time.Duration // construct..render, drain and SAQUsage loop excluded
}

func (L *layers) simulate() time.Duration { return L.warmup + L.hot + L.post }

// tracedResult is the traced operation's output: the same reports as
// an untraced operation, plus the per-layer figures and quiesce errors.
type tracedResult struct {
	reports     []stats.Report
	digests     []uint64
	text        string
	quiesceErrs []error // per policy, after the drain
	layers      layers
}

// gcCounters reads the runtime's cumulative CPU-class estimates.
func gcCounters() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return f(0), f(1) - f(2)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// tracedOp runs every policy of the workload by driving fabric
// directly, the way experiments.Run.Execute does, but with the horizon
// sliced at the hotspot's start and end, a dispatch probe tracking the
// event-heap depth, allocation and GC readings at each slice boundary,
// and a drain plus CheckQuiesced after the horizon. Reports are taken
// at the horizon, so they must equal Execute's.
func (w *workload) tracedOp(t *tracer, parent int, cc traffic.CornerCase) (tracedResult, error) {
	var out tracedResult
	L := &out.layers
	L.engines = max(w.shards, 1)
	L.imbalance = 1
	runtime.GC()
	gc0, busy0 := gcCounters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	numGC0 := ms.NumGC
	opStart := time.Now()

	runs := w.runs(cc, w.shards)
	results := make([]*experiments.Result, len(runs))
	for i, r := range runs {
		pspan := t.begin("policy "+r.Policy.String(), parent)
		res, err := w.tracedRun(t, pspan, r, cc, &out)
		t.end(pspan, nil)
		if err != nil {
			return out, fmt.Errorf("%v: %w", r.Policy, err)
		}
		results[i] = res
		out.reports = append(out.reports, res.Report())
	}
	id := t.begin("experiments.Table", parent)
	text, err := w.render(w, cc, results)
	L.render = t.end(id, nil)
	if err != nil {
		return out, err
	}
	out.text = text
	L.comparableDur = time.Since(opStart) - L.drain - L.saqUsage*saqUsageCalls

	runtime.ReadMemStats(&ms)
	L.gcCycles = ms.NumGC - numGC0
	runtime.GC() // closes the runtime's CPU-class accounting window
	gc1, busy1 := gcCounters()
	L.gcCPUFrac = ratio(gc1-gc0, busy1-busy0)
	out.digests, err = digests(out.reports)
	return out, err
}

// saqUsageCalls is how many Network.SAQUsage calls time one reading.
const saqUsageCalls = 200

// tracedRun is one policy of tracedOp: it adds its figures and its
// quiesce check to out and returns its result as of the horizon. The
// set-up order (construct, shard, meters, SAQ sampler, install) is
// Execute's, so the event sequence — and with it every result — is the
// same.
func (w *workload) tracedRun(t *tracer, parent int, r experiments.Run, cc traffic.CornerCase, out *tracedResult) (*experiments.Result, error) {
	L := &out.layers
	id := t.begin("fabric.New", parent)
	net, err := build(r)
	L.construct += t.end(id, nil)
	if err != nil {
		return nil, err
	}
	sharded := net.ShardCount() > 0
	if sharded {
		defer net.FinishWindowed() // no-op after a drain; releases workers on error paths
	}

	tp, err := stats.NewThroughput(r.Bin)
	if err != nil {
		return nil, err
	}
	saq, err := stats.NewSAQSeries(r.Bin)
	if err != nil {
		return nil, err
	}
	lat := stats.NewLatency()
	engines := []*sim.Engine{net.Engine}
	var shardTP []*stats.Throughput
	var shardLat []*stats.Latency
	if sharded {
		for i := 0; i < net.ShardCount(); i++ {
			stp, err := stats.NewThroughput(r.Bin)
			if err != nil {
				return nil, err
			}
			slat := stats.NewLatency()
			shardTP, shardLat = append(shardTP, stp), append(shardLat, slat)
			eng := net.ShardEngine(i)
			engines = append(engines, eng)
			net.SetShardOnDeliver(i, func(pk *pkt.Packet) {
				now := eng.Now()
				stp.Add(now, pk.Size)
				slat.Add(now - pk.CreatedAt)
			})
		}
	} else {
		net.OnDeliver = func(pk *pkt.Packet) {
			now := net.Engine.Now()
			tp.Add(now, pk.Size)
			lat.Add(now - pk.CreatedAt)
		}
	}
	// Per-engine heap high-water marks; each probe runs on its own
	// engine's goroutine and is read only after the barrier.
	hw := make([]int, len(engines))
	for i, eng := range engines {
		i, eng := i, eng
		eng.SetDispatchProbe(func(sim.Time, uint64) {
			if n := eng.Pending(); n > hw[i] {
				hw[i] = n
			}
		})
	}
	if r.Policy == fabric.PolicyRECN {
		period := r.Bin / 4
		if period <= 0 {
			period = r.Bin
		}
		var sample func()
		sample = func() {
			total, maxIn, maxEg := net.SAQUsage()
			saq.Observe(net.Engine.Now(), stats.SAQSample{Total: total, MaxIngress: maxIn, MaxEgress: maxEg})
			if net.Engine.Now() < r.Until {
				net.Engine.After(period, sample)
			}
		}
		net.Engine.Schedule(0, sample)
	}
	inj := newInjector(net)
	id = t.begin("traffic.CornerCase.Install", parent)
	err = cc.Install(inj)
	L.install += t.end(id, nil)
	if err != nil {
		return nil, err
	}

	// The simulate phase, sliced: chunked Run calls dispatch exactly
	// the events one call would, in the same order.
	advance := net.Engine.Run
	name := "sim.Engine.Run"
	if sharded {
		advance = func(until sim.Time) uint64 { net.RunWindowed(until); return 0 }
		name = "fabric.Network.RunWindowed"
	}
	var ms runtime.MemStats
	slice := func(label string, until sim.Time) (time.Duration, uint64, uint64) {
		runtime.ReadMemStats(&ms)
		alloc0, ev0, cpu0 := ms.TotalAlloc, net.TotalEvents(), processCPU()
		id := t.begin(name+" "+label, parent)
		advance(until)
		d := t.end(id, nil)
		L.simCPU += processCPU() - cpu0
		runtime.ReadMemStats(&ms)
		ev := net.TotalEvents() - ev0
		alloc := ms.TotalAlloc - alloc0
		t.spans[id-1].args = map[string]any{"events": ev, "alloc_bytes": alloc}
		return d, alloc, ev
	}
	d, alloc, ev := slice("warmup", cc.HotStart)
	L.warmup, L.allocWarmup, L.eventsWarmup = L.warmup+d, L.allocWarmup+alloc, L.eventsWarmup+ev
	d, alloc, ev = slice("hot", cc.HotEnd)
	L.hot, L.allocHot, L.eventsHot = L.hot+d, L.allocHot+alloc, L.eventsHot+ev
	d, _, _ = slice("post", r.Until)
	L.post += d
	if err := inj.firstErr(); err != nil {
		return nil, fmt.Errorf("workload injection: %w", err)
	}

	// Snapshot the report at the horizon, as Execute returns it: on the
	// windowed runtime the shard meters fold into tp and lat, which no
	// delivery writes there, in shard order.
	for i := range shardTP {
		if err := tp.Merge(shardTP[i]); err != nil {
			return nil, err
		}
		lat.Merge(shardLat[i])
	}
	mem := net.MemStats()
	res := &experiments.Result{
		Policy: r.Policy, Throughput: tp, SAQ: saq, Latency: lat,
		Injected: net.InjectedPackets, Delivered: net.DeliveredPackets,
		OrderViolations: net.OrderViolations, Events: net.TotalEvents(),
		Faults: net.FaultReport(), Mem: &mem,
	}
	// Freeze the meters: the drain keeps delivering into the live ones.
	frozen, err := experiments.ResultFromReport(r.Policy, res.Report())
	if err != nil {
		return nil, err
	}
	L.events += res.Events
	L.delivered += res.Delivered
	L.stateBytes = max(L.stateBytes, mem.StateBytes)
	for _, h := range hw {
		L.pendingHW = max(L.pendingHW, h)
	}
	if sharded {
		var sum, top uint64
		for i := 0; i < net.ShardCount(); i++ {
			ex := net.ShardEngine(i).Executed
			sum += ex
			top = max(top, ex)
		}
		L.imbalance = max(L.imbalance, ratio(float64(top)*float64(net.ShardCount()), float64(sum)))
	}
	if r.Policy == fabric.PolicyRECN {
		id := t.begin("fabric.Network.SAQUsage", parent)
		for i := 0; i < saqUsageCalls; i++ {
			net.SAQUsage()
		}
		L.saqUsage = t.end(id, map[string]any{"calls": saqUsageCalls}) / saqUsageCalls
		rs := net.RECNStats()
		L.recnAllocs, L.recnTokens = rs.Allocs, rs.TokensSent
		pk := saq.Peak()
		L.peakSAQs, L.peakPortSAQs = pk.Total, max(pk.MaxIngress, pk.MaxEgress)
	}

	id = t.begin("drain", parent)
	if sharded {
		net.DrainWindowed()
	} else {
		net.Engine.Drain()
	}
	out.quiesceErrs = append(out.quiesceErrs, net.CheckQuiesced())
	L.drain += t.end(id, nil)
	for _, eng := range engines {
		eng.SetDispatchProbe(nil)
	}
	return frozen, nil
}

// ratio is a/b, or 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
