package fabric

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func mustTopo(t *testing.T, hosts int) *topology.Topology {
	t.Helper()
	topo, err := topology.ForHosts(hosts)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// These tests cover the recovery watchdogs under *compound* fault
// plans: two fault mechanisms aimed at the same control traffic in the
// same window, where a repair action itself can be hit by the second
// fault. Every run executes under the always-on invariant checker
// (newFaultNet) and must balance the fault report and quiesce.

// assertFaultBalance checks the report's internal accounting: every
// flap that went down came back up, corrupted packets are delivered
// (lossless fabric) and never exceed corruptions, and the drained
// network delivered everything it accepted.
func assertFaultBalance(t *testing.T, n *Network, r *stats.FaultReport) {
	t.Helper()
	if r.LinkDowns != r.LinkUps {
		t.Errorf("flap accounting unbalanced: downs=%d ups=%d", r.LinkDowns, r.LinkUps)
	}
	// Corrupted counts per-link corruption events: a packet damaged on
	// two hops counts twice but delivers once, so delivered-corrupt is
	// bounded by (not equal to) the event count — and must be nonzero
	// when corruption fired, since the fabric never drops a packet.
	if r.CorruptedDelivered > r.Corrupted {
		t.Errorf("delivered-corrupt %d exceeds corrupted %d", r.CorruptedDelivered, r.Corrupted)
	}
	if r.Corrupted > 0 && r.CorruptedDelivered == 0 {
		t.Errorf("corrupted %d packets but none delivered corrupt", r.Corrupted)
	}
	if n.InjectedPackets == 0 || n.InjectedPackets != n.DeliveredPackets {
		t.Errorf("injected %d, delivered %d", n.InjectedPackets, n.DeliveredPackets)
	}
	if err := n.FinalCheck(); err != nil {
		t.Errorf("FinalCheck: %v", err)
	}
}

// TestCompoundFlapDuringXoffRetransmit drops Xoffs (forcing the
// watchdog's Xoff resend path) while flapping the hotspot's last-hop
// link through the same window — so resent Xoffs and the Xon that
// follows contend with a dead link, and some resends are themselves
// dropped by the probabilistic rule.
func TestCompoundFlapDuringXoffRetransmit(t *testing.T) {
	topo := mustTopo(t, 64)
	sw, port := topo.HostAttach(32) // the hotspot's attachment link
	plan := fault.NewPlan(11).
		Drop(fault.Xoff, 3).
		Rule(fault.Xoff, fault.Rule{DropProb: 0.2}).
		Flap(fault.LinkFlap{Switch: sw, Port: port, Host: -1,
			Down: 25 * sim.Microsecond, Up: 40 * sim.Microsecond})
	n := newFaultNet(t, 64, plan, testRecovery())
	installHotspot(t, n, 60*sim.Microsecond)
	n.Engine.Drain()
	r := n.FaultReport()
	if r.Dropped[stats.FaultXoff] < 3 {
		t.Fatalf("dropped xoffs = %d, want ≥ 3 (scripted)", r.Dropped[stats.FaultXoff])
	}
	if r.LinkDowns != 1 {
		t.Fatalf("flap never fired: downs=%d", r.LinkDowns)
	}
	// The dropped Xoffs left SAQs overcommitted; either the resend or
	// the Xon override must have repaired them for the drain to finish.
	if r.XoffResent == 0 && r.XonOverridden == 0 {
		t.Error("no Xoff resend or Xon override despite dropped Xoffs")
	}
	assertFaultBalance(t, n, r)
}

// TestCompoundCorruptAndDelayedControl corrupts payload packets while
// delaying and dropping the token/credit control traffic in the same
// run: recovery timers (token timeout, credit resync) race against
// control messages that are late rather than lost, and must not
// double-repair. Only each link's first token is scripted to drop: the
// links carry a few tokens each, so a larger quota would leave none to
// delay.
func TestCompoundCorruptAndDelayedControl(t *testing.T) {
	plan := fault.NewPlan(23).
		Corrupt(50).
		Drop(fault.Token, 1).
		Rule(fault.Token, fault.Rule{DelayProb: 0.3, Delay: 5 * sim.Microsecond}).
		Rule(fault.Credit, fault.Rule{DropProb: 0.002, DelayProb: 0.1, Delay: 2 * sim.Microsecond})
	n, rec := newTracedFaultNet(t, 64, plan, testRecovery(), true)
	installHotspot(t, n, 50*sim.Microsecond)
	n.Engine.Drain()
	r := n.FaultReport()
	if r.Corrupted == 0 {
		t.Fatal("corruption never fired")
	}
	if r.Delayed[stats.FaultToken] == 0 {
		t.Fatal("no token was ever delayed")
	}
	if r.Dropped[stats.FaultToken] == 0 {
		t.Fatal("no token was dropped")
	}
	assertDropsPerLink(t, rec, r, map[fault.Kind]int{fault.Token: 1})
	// Dropped credits must be fully restored once links go quiet; a
	// merely delayed credit must NOT be double-restored (the resync
	// only fires after CreditQuiet of silence, so a late credit lands
	// first). The checker's credit-bounds audit catches over-restore as
	// a violation; here we check the report side balances.
	if dropped := r.Dropped[stats.FaultCredit]; dropped > 0 {
		if r.CreditsRestored != dropped*64 {
			t.Errorf("credits restored = %d bytes, want %d (64 per dropped credit)",
				r.CreditsRestored, dropped*64)
		}
	} else if r.CreditsRestored != 0 {
		t.Errorf("restored %d credit bytes but none were dropped", r.CreditsRestored)
	}
	assertFaultBalance(t, n, r)
}

// TestCompoundFlapBothDirections flaps a core link and a host injection
// link with overlapping windows while dropping notifications, so
// congestion-tree setup, teardown and the flap recovery all interleave.
func TestCompoundFlapBothDirections(t *testing.T) {
	plan := fault.NewPlan(31).
		Drop(fault.Notify, 3).
		Flap(fault.LinkFlap{Switch: 0, Port: 4, Host: -1,
			Down: 10 * sim.Microsecond, Up: 22 * sim.Microsecond}).
		Flap(fault.LinkFlap{Host: 50,
			Down: 15 * sim.Microsecond, Up: 28 * sim.Microsecond})
	n, rec := newTracedFaultNet(t, 64, plan, testRecovery(), true)
	installHotspot(t, n, 45*sim.Microsecond)
	n.Engine.Drain()
	r := n.FaultReport()
	if r.LinkDowns != 2 || r.LinkUps != 2 {
		t.Fatalf("flap accounting: downs=%d ups=%d, want 2/2", r.LinkDowns, r.LinkUps)
	}
	if r.Dropped[stats.FaultNotify] == 0 {
		t.Fatal("no notification was dropped")
	}
	assertDropsPerLink(t, rec, r, map[fault.Kind]int{fault.Notify: 3})
	if want := r.Dropped[stats.FaultNotify] + 2; r.InjectedFaults() != want {
		t.Errorf("InjectedFaults() = %d, want %d (notify drops + 2 flaps)", r.InjectedFaults(), want)
	}
	assertFaultBalance(t, n, r)
}
