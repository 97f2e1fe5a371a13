// Package fault injects deterministic, seeded faults into a simulated
// network and configures the recovery layer that survives them.
//
// The paper assumes perfect signaling: tokens always return (§3.8),
// Xon/Xoff always arrive (§3.7) and credits are never lost. Real
// interconnects drop and delay control symbols, and links flap. A Plan
// describes which of those imperfections to inject — per-kind
// probabilistic rules, scripted "drop the first N" counters, payload
// corruption and a link-flap schedule. Each link direction applies the
// plan through its own View — a private RNG stream seeded from the plan
// seed and the channel's wiring-order ID, private script quotas and a
// private corruption cadence — so every run is reproducible, and the
// serial and windowed runtimes share one fault model. A Recovery
// describes the watchdog layer (implemented in internal/fabric) that
// detects the resulting stalls and leaks and repairs them: SAQ
// token-timeout reclaim, credit resync, Xoff retransmit and
// remote-stop override.
//
// Data packets are never dropped: the fabric is lossless by
// construction, and link-level CRC/retry (standard in lossless
// hardware) is assumed to recover payload transfers. Payload faults are
// therefore corruption (detected and counted at delivery) and link
// flaps (the link stops transmitting for a window); everything queued
// behind a failed link waits and is delivered after restoration.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Kind identifies the class of link traffic a fault targets.
type Kind = stats.FaultKind

// Fault targets, aliasing the stats kinds so FaultReport indices line
// up with Plan rules.
const (
	Credit = stats.FaultCredit
	Token  = stats.FaultToken
	Xon    = stats.FaultXon
	Xoff   = stats.FaultXoff
	Notify = stats.FaultNotify
	Data   = stats.FaultData
)

// Rule is a probabilistic fault rule for one message kind: each message
// of the kind is independently dropped, duplicated or delayed with the
// given probabilities (drop wins over duplicate wins over delay).
type Rule struct {
	DropProb  float64
	DupProb   float64
	DelayProb float64
	// Delay is the extra latency added when DelayProb fires.
	Delay sim.Time
}

func (r Rule) zero() bool {
	return r.DropProb == 0 && r.DupProb == 0 && r.DelayProb == 0
}

// LinkFlap takes one link direction down for a time window: the channel
// stops transmitting at Down and resumes at Up. Host ≥ 0 selects host
// Host's injection link (host → first switch); otherwise Switch/Port
// select a switch output link (toward its wired peer, which may be a
// host). Traffic queued behind the link waits; nothing in the window is
// transmitted, so nothing is lost to the flap itself.
type LinkFlap struct {
	Switch, Port int
	Host         int
	Down, Up     sim.Time
}

// Verdict is the fate of one message as decided by a channel's view.
type Verdict struct {
	Drop  bool
	Dup   bool
	Delay sim.Time
}

// Plan is a deterministic fault schedule for one network run. Configure
// it with the chainable setters (or struct literals), hand it to
// fabric.Config.Faults, and read the outcome from the network's
// FaultReport. The plan itself is a pure description: the fabric gives
// every link direction its own View, and the views hold all run state.
// A Plan is single-use: binding it to a second network is an error.
type Plan struct {
	// Seed drives every probabilistic rule.
	Seed int64
	// Rules holds the per-kind probabilistic fault rules.
	Rules map[Kind]Rule
	// DropNext scripts exact losses: the first N messages of a kind
	// transmitted on each link direction are dropped.
	DropNext map[Kind]int
	// CorruptEvery corrupts the payload of every Nth data packet
	// transmitted on each link direction (0 = never).
	CorruptEvery int
	// Flaps is the link-failure schedule.
	Flaps []LinkFlap

	bound bool
}

// NewPlan returns an empty plan with the given RNG seed.
func NewPlan(seed int64) *Plan {
	return &Plan{
		Seed:     seed,
		Rules:    make(map[Kind]Rule),
		DropNext: make(map[Kind]int),
	}
}

// Drop scripts the loss of the first n messages of kind k on each link
// direction.
func (p *Plan) Drop(k Kind, n int) *Plan {
	if p.DropNext == nil {
		p.DropNext = make(map[Kind]int)
	}
	p.DropNext[k] += n
	return p
}

// Rule installs a probabilistic fault rule for kind k.
func (p *Plan) Rule(k Kind, r Rule) *Plan {
	if p.Rules == nil {
		p.Rules = make(map[Kind]Rule)
	}
	p.Rules[k] = r
	return p
}

// Flap appends a link-failure window to the schedule.
func (p *Plan) Flap(f LinkFlap) *Plan {
	p.Flaps = append(p.Flaps, f)
	return p
}

// Corrupt corrupts every nth data packet on each link direction.
func (p *Plan) Corrupt(every int) *Plan {
	p.CorruptEvery = every
	return p
}

// sortedKinds returns a fault-kind map's keys in ascending order, so
// callers iterating a plan report the same first error on every run
// (Go's map iteration order is deliberately randomized).
func sortedKinds[V any](m map[Kind]V) []Kind {
	kinds := make([]Kind, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// Validate reports configuration errors. With several errors present
// the one reported is deterministic: rules are checked before scripted
// drops, and each map is checked in ascending kind order.
func (p *Plan) Validate() error {
	for _, k := range sortedKinds(p.Rules) {
		r := p.Rules[k]
		if k < 0 || k >= stats.NumFaultKinds {
			return fmt.Errorf("fault: rule for unknown kind %d", int(k))
		}
		for _, prob := range []float64{r.DropProb, r.DupProb, r.DelayProb} {
			// Written so NaN, for which every comparison is false,
			// fails it too.
			if !(prob >= 0 && prob <= 1) {
				return fmt.Errorf("fault: %v probability %v outside [0, 1]", k, prob)
			}
		}
		if r.Delay < 0 {
			return fmt.Errorf("fault: %v negative delay %v", k, r.Delay)
		}
		if k == Data && !r.zero() {
			return fmt.Errorf("fault: data packets cannot be dropped, duplicated or delayed (the fabric is lossless; use CorruptEvery or a LinkFlap)")
		}
		if k == Credit && r.DupProb > 0 {
			return fmt.Errorf("fault: credits cannot be duplicated (a forged credit would overflow the receiver RAM the losslessness invariant protects; model it as loss)")
		}
	}
	for _, k := range sortedKinds(p.DropNext) {
		n := p.DropNext[k]
		if k < 0 || k >= stats.NumFaultKinds || k == Data {
			return fmt.Errorf("fault: scripted drop for invalid kind %v", k)
		}
		if n < 0 {
			return fmt.Errorf("fault: scripted drop count %d for %v", n, k)
		}
	}
	if p.CorruptEvery < 0 {
		return fmt.Errorf("fault: CorruptEvery %d", p.CorruptEvery)
	}
	for i, f := range p.Flaps {
		if f.Down < 0 || f.Up <= f.Down {
			return fmt.Errorf("fault: flap %d window [%v, %v] not ordered", i, f.Down, f.Up)
		}
	}
	return nil
}

// Bind validates the plan and marks it used by a network. Called by
// the fabric; binding twice is an error (plans are single-use).
func (p *Plan) Bind() error {
	if p.bound {
		return fmt.Errorf("fault: plan already bound to a network (plans are single-use)")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	p.bound = true
	return nil
}

// View is one link direction's instance of a plan: it draws from its
// own RNG stream (derived from the plan seed and the channel's
// wiring-order ID), consumes its own scripted-drop quotas and counts its
// own corruption cadence. Verdicts therefore depend only on the
// channel's local traffic order, never on how other links interleave —
// which is what keeps windowed runs identical at every shard count.
type View struct {
	p        *Plan
	seed     int64
	rng      *rand.Rand // built from seed on the first draw (see chance)
	report   *stats.FaultReport
	dropLeft [stats.NumFaultKinds]int
	dataSeen int
}

// View derives the per-channel instance for salt (the channel's stable
// ID); report receives the injected-fault counters.
func (p *Plan) View(salt int64, report *stats.FaultReport) *View {
	v := &View{p: p, seed: mixSeed(p.Seed, salt), report: report}
	for k, n := range p.DropNext {
		v.dropLeft[k] = n
	}
	return v
}

// SetReport redirects the view's counters (the windowed runtime points
// each channel's view at its owning shard's report, merged after the
// run).
func (v *View) SetReport(report *stats.FaultReport) { v.report = report }

// mixSeed decorrelates the per-channel streams: adjacent salts must
// not yield adjacent (correlated) rand.Source states, so the pair is
// run through a splitmix64 finalizer.
func mixSeed(seed, salt int64) int64 {
	z := uint64(seed) ^ (uint64(salt)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// chance draws the view's next uniform variate. The stream is seeded
// on first use: its state is ~5 KB, a 4096-host fat tree has 49152
// channels, and a channel that never draws never pays for it.
func (v *View) chance() float64 {
	if v.rng == nil {
		v.rng = rand.New(rand.NewSource(v.seed))
	}
	return v.rng.Float64()
}

// CtlVerdict decides the fate of one control message of kind k on this
// view's channel. Scripted drops are consumed first; then the
// probabilistic rule applies.
func (v *View) CtlVerdict(k Kind) Verdict {
	if v.dropLeft[k] > 0 {
		v.dropLeft[k]--
		v.report.Dropped[k]++
		return Verdict{Drop: true}
	}
	r, ok := v.p.Rules[k]
	if !ok || r.zero() {
		return Verdict{}
	}
	switch {
	case r.DropProb > 0 && v.chance() < r.DropProb:
		v.report.Dropped[k]++
		return Verdict{Drop: true}
	case r.DupProb > 0 && v.chance() < r.DupProb:
		v.report.Duplicated[k]++
		return Verdict{Dup: true}
	case r.DelayProb > 0 && v.chance() < r.DelayProb:
		v.report.Delayed[k]++
		return Verdict{Delay: r.Delay}
	}
	return Verdict{}
}

// CorruptData decides whether the next data packet on this view's
// channel has its payload corrupted.
func (v *View) CorruptData() bool {
	v.dataSeen++
	if v.p.CorruptEvery > 0 && v.dataSeen%v.p.CorruptEvery == 0 {
		v.report.Corrupted++
		return true
	}
	return false
}

// Recovery configures the watchdog and recovery layer that keeps a
// network live under an imperfect control plane. The zero value
// disables it; DefaultRecovery returns sane timers. All timeouts are
// rounded up to whole audit periods.
type Recovery struct {
	// Enabled turns the layer on. With it off, the fabric schedules no
	// watchdog events at all and the fault-free hot path is unchanged.
	Enabled bool
	// Period is the audit tick: how often the watchdog inspects the
	// network (default 10 µs).
	Period sim.Time
	// TokenTimeout reclaims an idle SAQ whose upstream notification or
	// returning token was lost: after this long with the queue idle and
	// the token still outstanding, the SAQ deallocates locally and its
	// token returns downstream (default 150 µs). Late tokens for
	// reclaimed SAQs are already tolerated as stale messages.
	TokenTimeout sim.Time
	// XoffResend re-sends the per-SAQ stop signal while the SAQ stays
	// above the Xoff threshold, so a lost Xoff only widens the SAQ
	// occupancy bound for one resend period (default 60 µs).
	XoffResend sim.Time
	// XonTimeout clears a remote stop (xoffRemote) that has been held
	// this long: a lost Xon would otherwise gate the SAQ forever. If the
	// downstream SAQ is genuinely still full it re-asserts Xoff
	// (default 150 µs).
	XonTimeout sim.Time
	// CreditQuiet is how long a link must be completely quiet (no credit
	// movement, nothing in flight in either direction) before the credit
	// auditor compares the sender's credit count against the receiver's
	// buffer occupancy and restores lost credits (default 80 µs).
	CreditQuiet sim.Time
	// StallTimeout is the no-delivery window with packets in flight that
	// counts as a global progress stall (default 250 µs).
	StallTimeout sim.Time
}

// DefaultRecovery returns the recovery layer with default timers.
func DefaultRecovery() Recovery {
	return Recovery{
		Enabled:      true,
		Period:       10 * sim.Microsecond,
		TokenTimeout: 150 * sim.Microsecond,
		XoffResend:   60 * sim.Microsecond,
		XonTimeout:   150 * sim.Microsecond,
		CreditQuiet:  80 * sim.Microsecond,
		StallTimeout: 250 * sim.Microsecond,
	}
}

// WithDefaults fills unset (zero) timers from DefaultRecovery.
func (r Recovery) WithDefaults() Recovery {
	d := DefaultRecovery()
	if r.Period <= 0 {
		r.Period = d.Period
	}
	if r.TokenTimeout <= 0 {
		r.TokenTimeout = d.TokenTimeout
	}
	if r.XoffResend <= 0 {
		r.XoffResend = d.XoffResend
	}
	if r.XonTimeout <= 0 {
		r.XonTimeout = d.XonTimeout
	}
	if r.CreditQuiet <= 0 {
		r.CreditQuiet = d.CreditQuiet
	}
	if r.StallTimeout <= 0 {
		r.StallTimeout = d.StallTimeout
	}
	return r
}

// Ticks converts a timeout to whole audit periods (minimum 1).
func (r Recovery) Ticks(d sim.Time) int {
	if r.Period <= 0 {
		return 1
	}
	n := int((d + r.Period - 1) / r.Period)
	if n < 1 {
		n = 1
	}
	return n
}
