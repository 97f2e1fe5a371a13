// Package chaos is the chaos-soak harness: it generates randomized
// compound fault plans (drops + flaps + corruption + delays from one
// seed), runs them against the RECN fabric under the full runtime
// invariant checker, and minimizes any failing plan to the smallest
// fragment set that still fails.
//
// Each scenario is a list of fault-spec fragments in the syntax of
// fault.ParsePlan, so a failure report is directly reproducible with
// `recnsim -faults "<spec>" -check`. The soak entry point is
// TestChaosSoak (chaos_test.go); CI runs a short seeded matrix per PR
// under -race and a longer sweep on the scheduled job.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/check"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Scenario is one reproducible chaos run: a seed (driving both the
// fault plan's RNG and the background workload), a network size, an
// injection horizon and the fault-plan fragments.
type Scenario struct {
	Seed      int64
	Hosts     int
	Until     sim.Time
	Fragments []string
	// Policy names the queuing mechanism under test ("RECN",
	// "throttle", "arn", ...); empty means RECN, so pre-existing
	// hand-written scenarios keep their meaning.
	Policy string
	// Topo selects the routing function: "" or "min" is the paper's
	// deterministic MIN, "fattree" the adaptive-ascent k-ary n-tree.
	// Both share the same physical wiring (the fat tree only overrides
	// Route), so fault fragments are valid under either.
	Topo string
}

// settle is how long past the injection horizon a run may take to
// drain before it is declared wedged. It is far beyond any healthy
// drain at these scales but bounded, so a deadlocked network fails
// the run instead of hanging the harness (the checker's livelock
// detector usually fires first).
const settle = 2 * sim.Millisecond

// Spec renders the scenario's fault plan in fault.ParsePlan syntax.
func (s Scenario) Spec() string {
	frags := append([]string{fmt.Sprintf("seed=%d", s.Seed)}, s.Fragments...)
	return strings.Join(frags, ",")
}

func (s Scenario) String() string {
	return fmt.Sprintf("chaos{seed=%d hosts=%d policy=%s topo=%s until=%v spec=%q}", s.Seed, s.Hosts, s.policyName(), s.topoName(), s.Until, s.Spec())
}

func (s Scenario) topoName() string {
	if s.Topo == "" {
		return "min"
	}
	return s.Topo
}

// buildTopo resolves the scenario's topology.
func (s Scenario) buildTopo() (fabric.Topology, error) {
	if s.topoName() == "fattree" {
		return topology.NewFatTree(s.Hosts)
	}
	return topology.ForHosts(s.Hosts)
}

func (s Scenario) policyName() string {
	if s.Policy == "" {
		return "RECN"
	}
	return s.Policy
}

// policy resolves the scenario's mechanism.
func (s Scenario) policy() (fabric.Policy, error) {
	return fabric.ParsePolicy(s.policyName())
}

// Generate builds a randomized compound scenario from a seed: 3–6
// fragments drawn from scripted drops, probabilistic drop/dup/delay
// rules on random control kinds, payload corruption, and 1–2 link
// flaps on links that are guaranteed wired (host attachment points).
// The same seed always yields the same scenario.
func Generate(seed int64, hosts int) (Scenario, error) {
	topo, err := topology.ForHosts(hosts)
	if err != nil {
		return Scenario{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{Seed: seed, Hosts: hosts, Until: 40 * sim.Microsecond}
	kinds := []string{"token", "xoff", "xon", "notify", "credit"}
	kind := func() string { return kinds[rng.Intn(len(kinds))] }
	// fault.Plan.Validate rejects credit duplication (a forged credit
	// breaks the losslessness invariant by construction), so
	// duplication sticks to the RECN control kinds.
	dupKind := func() string { return kinds[rng.Intn(len(kinds)-1)] }
	// Flap windows stay well inside the injection horizon so every
	// scheduled link-down has its link-up executed by the drain.
	window := func() (sim.Time, sim.Time) {
		down := s.Until/8 + sim.Time(rng.Int63n(int64(s.Until/2)))
		up := down + 2*sim.Microsecond + sim.Time(rng.Int63n(int64(s.Until/4)))
		return down, up
	}
	gens := []func() string{
		func() string { return fmt.Sprintf("drop=%s:%d", kind(), 1+rng.Intn(3)) },
		func() string { return fmt.Sprintf("droprate=%s:%.3f", kind(), 0.005+0.045*rng.Float64()) },
		func() string { return fmt.Sprintf("duprate=%s:%.3f", dupKind(), 0.005+0.045*rng.Float64()) },
		func() string {
			return fmt.Sprintf("delayrate=%s:%.3f:%dns", kind(), 0.01+0.09*rng.Float64(), 200+rng.Intn(4000))
		},
		func() string { return fmt.Sprintf("corrupt=%d", 20+rng.Intn(80)) },
		func() string {
			sw, port := topo.HostAttach(rng.Intn(hosts))
			down, up := window()
			return fmt.Sprintf("flap=%d:%d:%dns:%dns", sw, port, int64(down/sim.Nanosecond), int64(up/sim.Nanosecond))
		},
		func() string {
			down, up := window()
			return fmt.Sprintf("flaphost=%d:%dns:%dns", rng.Intn(hosts), int64(down/sim.Nanosecond), int64(up/sim.Nanosecond))
		},
	}
	n := 3 + rng.Intn(4)
	flaps := 0
	for len(s.Fragments) < n {
		g := rng.Intn(len(gens))
		if g >= 5 { // at most two flap fragments per scenario
			if flaps >= 2 {
				continue
			}
			flaps++
		}
		s.Fragments = append(s.Fragments, gens[g]())
	}
	// Drawn after the fragments so per-seed fault plans are unchanged
	// from the RECN-only soaks; the soak now also samples the
	// congestion-management challengers.
	s.Policy = []string{"RECN", "throttle", "arn"}[rng.Intn(3)]
	// Drawn last for the same reason: a quarter of the scenarios run on
	// the adaptive fat tree (same wiring, different routing), so the
	// soak covers the scaling figures' topology without perturbing any
	// earlier per-seed draw.
	if rng.Intn(4) == 0 {
		s.Topo = "fattree"
	}
	return s, nil
}

// aggressiveRecovery mirrors the fabric test battery's timers: every
// watchdog fires well within the soak horizon.
func aggressiveRecovery() fault.Recovery {
	return fault.Recovery{
		Enabled:      true,
		Period:       2 * sim.Microsecond,
		TokenTimeout: 20 * sim.Microsecond,
		XoffResend:   30 * sim.Microsecond,
		XonTimeout:   20 * sim.Microsecond,
		CreditQuiet:  10 * sim.Microsecond,
		StallTimeout: 50 * sim.Microsecond,
	}
}

// Run executes the scenario once under the full invariant checker and
// returns the first failure: an invariant violation (with diagnostics
// snapshot), a wedged network, unbalanced fault accounting, or lost
// packets. nil means the fabric absorbed the whole plan cleanly.
func (s Scenario) Run() error {
	if err := s.run(); err != nil {
		return fmt.Errorf("chaos: %v: %w", s, err)
	}
	return nil
}

func (s Scenario) run() (err error) {
	topo, err := s.buildTopo()
	if err != nil {
		return err
	}
	plan, err := fault.ParsePlan(s.Spec())
	if err != nil {
		return err
	}
	policy, err := s.policy()
	if err != nil {
		return err
	}
	cfg := fabric.DefaultConfig(topo)
	cfg.Policy = policy
	cfg.Faults = plan
	cfg.Recovery = aggressiveRecovery()
	// A small flight-recorder ring so violation snapshots carry the
	// event tail; the livelock window is tightened to fail wedged runs
	// well inside the settle budget.
	cfg.Tracer = trace.New(trace.Config{BufferEvents: 512})
	cfg.Checker = check.New(check.Config{LivelockWindow: 500 * sim.Microsecond})
	net, err := fabric.New(cfg)
	if err != nil {
		return err
	}
	// The checker panics on the first violation (mid-event, where the
	// diagnostics are freshest); the boundary turns that into this
	// run's error. Anything else keeps crashing — it is a harness bug.
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(*check.Violation)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("invariant violation:\n%s", v.Detail())
		}
	}()
	if err := s.installWorkload(net); err != nil {
		return err
	}
	net.Engine.Run(s.Until)
	// Bounded settle instead of an unbounded Drain: a network that
	// cannot finish by the horizon is wedged and must fail the run.
	net.Engine.Run(s.Until + settle)
	if err := net.FinalCheck(); err != nil {
		return err
	}
	if pending := net.PendingPackets(); pending != 0 {
		return fmt.Errorf("%d packets still pending after %v settle", pending, settle)
	}
	return s.checkReport(net)
}

// RunSharded executes the scenario on the windowed runtime with k
// shard engines, under the same invariant checker, settle budget and
// accounting audits as Run. The workload is an equivalent per-host
// deterministic stream (the serial soak workload shares one RNG across
// sources, which a concurrent run cannot reproduce), so sharded soaks
// exercise the same fault plans but not the same event schedule.
func (s Scenario) RunSharded(k int) error {
	if err := s.runSharded(k); err != nil {
		return fmt.Errorf("chaos: %v [shards=%d]: %w", s, k, err)
	}
	return nil
}

func (s Scenario) runSharded(k int) (err error) {
	topo, err := s.buildTopo()
	if err != nil {
		return err
	}
	plan, err := fault.ParsePlan(s.Spec())
	if err != nil {
		return err
	}
	policy, err := s.policy()
	if err != nil {
		return err
	}
	cfg := fabric.DefaultConfig(topo)
	cfg.Policy = policy
	cfg.Faults = plan
	cfg.Recovery = aggressiveRecovery()
	cfg.Tracer = trace.New(trace.Config{BufferEvents: 512})
	cfg.Checker = check.New(check.Config{LivelockWindow: 500 * sim.Microsecond})
	net, err := fabric.New(cfg)
	if err != nil {
		return err
	}
	if _, err := net.Shard(k); err != nil {
		return err
	}
	// Violations on shard goroutines re-raise on this goroutine at the
	// window barrier (sim.ShardGroup re-panics the lowest-index worker
	// failure), so one recover boundary still catches everything.
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(*check.Violation)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("invariant violation:\n%s", v.Detail())
		}
	}()
	if err := s.installWorkloadSharded(net); err != nil {
		return err
	}
	net.RunWindowed(s.Until)
	net.RunWindowed(s.Until + settle)
	net.FinishWindowed()
	if err := net.FinalCheck(); err != nil {
		return err
	}
	if pending := net.PendingPackets(); pending != 0 {
		return fmt.Errorf("%d packets still pending after %v settle", pending, settle)
	}
	return s.checkReport(net)
}

// installWorkloadSharded mirrors installWorkload with each source's
// stream on its host's shard engine and a private per-source RNG (the
// serial workload's shared RNG draws in event order, which concurrent
// streams cannot reproduce deterministically).
func (s Scenario) installWorkloadSharded(net *fabric.Network) error {
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5eed))
	hosts := s.Hosts
	hot := rng.Intn(hosts)
	inject := func(src, dst, size int) {
		if err := net.InjectMessage(src, dst, size); err != nil {
			panic(check.NewViolation(check.RuleInternal, trace.NetLoc,
				fmt.Sprintf("chaos workload: %v", err)))
		}
	}
	for i := 0; i < 16; i++ {
		src := (hot + 1 + i) % hosts
		eng := net.ShardEngine(net.HostShard(src))
		var gen func()
		gen = func() {
			if eng.Now() > s.Until {
				return
			}
			inject(src, hot, 64)
			eng.After(64*sim.Nanosecond, gen)
		}
		eng.Schedule(0, gen)
	}
	for i := 0; i < 16; i++ {
		src := (hot + 20 + i) % hosts
		eng := net.ShardEngine(net.HostShard(src))
		srng := rand.New(rand.NewSource(s.Seed ^ 0x5eed ^ int64(src)*2053))
		var gen func()
		gen = func() {
			if eng.Now() > s.Until {
				return
			}
			dst := srng.Intn(hosts)
			if dst == src || dst == hot {
				dst = (hot + 17) % hosts
			}
			inject(src, dst, 64+64*srng.Intn(4))
			eng.After(sim.Time(128+srng.Intn(256))*sim.Nanosecond, gen)
		}
		eng.Schedule(0, gen)
	}
	return nil
}

// checkReport verifies the fault/recovery accounting balances after a
// drained run: every flap came back up, corruption never lost a packet
// (lossless fabric), and delivery matches injection.
func (s Scenario) checkReport(net *fabric.Network) error {
	r := net.FaultReport()
	if r == nil {
		return fmt.Errorf("no fault report on a faulted run")
	}
	if r.LinkDowns != r.LinkUps {
		return fmt.Errorf("flap accounting unbalanced: downs=%d ups=%d", r.LinkDowns, r.LinkUps)
	}
	if r.CorruptedDelivered > r.Corrupted {
		return fmt.Errorf("delivered-corrupt %d exceeds corruption events %d", r.CorruptedDelivered, r.Corrupted)
	}
	if r.Corrupted > 0 && r.CorruptedDelivered == 0 {
		return fmt.Errorf("%d corruption events but no corrupt delivery", r.Corrupted)
	}
	if net.InjectedPackets == 0 {
		return fmt.Errorf("workload injected nothing")
	}
	if net.InjectedPackets != net.DeliveredPackets {
		return fmt.Errorf("injected %d, delivered %d", net.InjectedPackets, net.DeliveredPackets)
	}
	return nil
}

// installWorkload drives a hotspot (the congestion-tree trigger RECN
// exists for) plus seeded random background traffic until s.Until.
// Injection errors surface as the run's failure via the panic boundary
// in run (InjectMessage only fails on spec-level errors here).
func (s Scenario) installWorkload(net *fabric.Network) error {
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5eed))
	hosts := s.Hosts
	hot := rng.Intn(hosts)
	inject := func(src, dst, size int) {
		if err := net.InjectMessage(src, dst, size); err != nil {
			panic(check.NewViolation(check.RuleInternal, trace.NetLoc,
				fmt.Sprintf("chaos workload: %v", err)))
		}
	}
	for i := 0; i < 16; i++ {
		src := (hot + 1 + i) % hosts
		var gen func()
		gen = func() {
			if net.Engine.Now() > s.Until {
				return
			}
			inject(src, hot, 64)
			net.Engine.After(64*sim.Nanosecond, gen)
		}
		net.Engine.Schedule(0, gen)
	}
	for i := 0; i < 16; i++ {
		src := (hot + 20 + i) % hosts
		var gen func()
		gen = func() {
			if net.Engine.Now() > s.Until {
				return
			}
			dst := rng.Intn(hosts)
			if dst == src || dst == hot {
				dst = (hot + 17) % hosts
			}
			inject(src, dst, 64+64*rng.Intn(4))
			net.Engine.After(sim.Time(128+rng.Intn(256))*sim.Nanosecond, gen)
		}
		net.Engine.Schedule(0, gen)
	}
	return nil
}

// Minimize shrinks a failing scenario to a locally minimal fragment
// set: it repeatedly removes any single fragment whose absence keeps
// the scenario failing (ddmin with subset size 1 — plans here are
// ≤ 6 fragments, so the quadratic loop is cheap). It returns the
// minimized scenario and its failure; a scenario that stopped failing
// (flaky under removal ordering is impossible — runs are
// deterministic) is returned unchanged with the original error.
func Minimize(s Scenario) (Scenario, error) {
	err := s.Run()
	if err == nil {
		return s, nil
	}
	for {
		shrunk := false
		for i := 0; i < len(s.Fragments); i++ {
			trial := s
			trial.Fragments = append(append([]string{}, s.Fragments[:i]...), s.Fragments[i+1:]...)
			if len(trial.Fragments) == 0 {
				continue
			}
			if terr := trial.Run(); terr != nil {
				s, err = trial, terr
				shrunk = true
				break
			}
		}
		if !shrunk {
			return s, err
		}
	}
}
