package fabric

import (
	"testing"

	"repro/internal/mempool"
	"repro/internal/stats"
	"repro/internal/topology"
)

// The analytic eager model must price exactly the dense layout of every
// container the fabric builds — the model is the denominator of every
// lazy/eager ratio the scaling figure prints, so any drift between the
// two silently corrupts the figure. The reference walks a freshly built
// network and sums, port by port, what each container's dense layout
// (the *LazyMatchesDense oracle) holds at that port's size, plus a full
// CAM and SAQ table for every RECN controller.
func TestEagerMemStatsMatchesModel(t *testing.T) {
	for _, p := range []Policy{
		Policy1Q, Policy4Q, PolicyVOQsw, PolicyVOQnet,
		PolicyRECN, PolicyThrottle, PolicyARN,
	} {
		t.Run(p.String(), func(t *testing.T) {
			topo, err := topology.ForHosts(64)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(topo)
			cfg.Policy = p
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := denseMemStats(net)
			want := EagerMemModel(cfg)
			if got != want {
				t.Errorf("dense reference = %+v\nEagerMemModel   = %+v", got, want)
			}
		})
	}
}

// denseMemStats is MemStats over the dense reference layout of every
// port's containers: what the network would hold fully preallocated.
func denseMemStats(n *Network) stats.MemReport {
	var r memAcc
	pool := mempool.NewPool(1)
	unit := func(qs *queueSet, active *activeList, credits *creditSet, hasRC bool) {
		r.Ports++
		var dq queueSet
		dq.init(pool, qs.n, qs.qcap, false)
		r.addQueueSet(&dq)
		var da activeList
		da.init(active.n, false)
		r.ActiveSlots += da.memCount()
		if credits != nil {
			var dc creditSet
			dc.init(credits.n, credits.start, false)
			r.CreditSlots += dc.memCount()
		}
		r.addRC(hasRC, n.cfg.RECN.MaxSAQs)
	}
	for _, sw := range n.switches {
		for _, in := range sw.in {
			if in != nil {
				unit(&in.qs, &in.active, nil, in.rc != nil)
			}
		}
		for _, out := range sw.out {
			if out != nil {
				unit(&out.qs, &out.active, &out.queueCredits, out.rc != nil)
			}
		}
	}
	for _, nic := range n.nics {
		unit(&nic.inj.qs, &nic.inj.active, &nic.inj.queueCredits, nic.inj.rc != nil)
		var dd destSet
		dd.init(nic.dests.n, false)
		r.DestSlots += dd.memCount()
		var da activeList
		da.init(nic.active.n, false)
		r.ActiveSlots += da.memCount()
		if nic.thr != nil {
			r.CreditSlots += n.topo.NumHosts() // one CNP clock per source
		}
	}
	return r.finish()
}

// The lazy fabric must start out paying only page tables: a fraction
// of the eager model before any traffic, for the policies with
// O(hosts) per-port state.
func TestLazyConstructionFootprint(t *testing.T) {
	topo, err := topology.ForHosts(256)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo)
	cfg.Policy = PolicyVOQnet
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lazy := net.MemStats()
	eager := EagerMemModel(cfg)
	if lazy.StateBytes <= 0 || eager.StateBytes <= 0 {
		t.Fatalf("degenerate footprints: lazy %d, eager %d", lazy.StateBytes, eager.StateBytes)
	}
	if ratio := float64(lazy.StateBytes) / float64(eager.StateBytes); ratio > 0.10 {
		t.Errorf("untouched lazy VOQnet fabric pays %.1f%% of the eager footprint (want ≤ 10%%): lazy %d B, eager %d B",
			100*ratio, lazy.StateBytes, eager.StateBytes)
	}
}
