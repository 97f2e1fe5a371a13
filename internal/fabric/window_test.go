package fabric

// Validation tests for Network.Shard: every precondition the windowed
// runtime depends on must be rejected up front with a clear error, not
// discovered mid-run as a race or a wrong result.

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

func newShardTestNet(t *testing.T, mutate func(*Config)) *Network {
	t.Helper()
	topo, err := topology.ForHosts(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo)
	cfg.Policy = PolicyRECN
	if mutate != nil {
		mutate(&cfg)
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func wantShardErr(t *testing.T, net *Network, k int, frag string) {
	t.Helper()
	if _, err := net.Shard(k); err == nil || !strings.Contains(err.Error(), frag) {
		t.Fatalf("Shard(%d): want error containing %q, got %v", k, frag, err)
	}
}

func TestShardValidation(t *testing.T) {
	t.Run("count", func(t *testing.T) {
		wantShardErr(t, newShardTestNet(t, nil), 0, "shard count")
		wantShardErr(t, newShardTestNet(t, nil), -3, "shard count")
	})
	t.Run("twice", func(t *testing.T) {
		net := newShardTestNet(t, nil)
		if _, err := net.Shard(2); err != nil {
			t.Fatal(err)
		}
		wantShardErr(t, net, 2, "already sharded")
		net.FinishWindowed()
	})
	t.Run("zero link latency", func(t *testing.T) {
		net := newShardTestNet(t, func(cfg *Config) { cfg.LinkLatency = 0 })
		wantShardErr(t, net, 2, "link latency")
	})
	t.Run("after start", func(t *testing.T) {
		net := newShardTestNet(t, nil)
		if err := net.InjectMessage(0, 1, 64); err != nil {
			t.Fatal(err)
		}
		wantShardErr(t, net, 2, "before the simulation starts")
	})
	// Scripted drops are per-channel quotas like every other fault
	// stream, so the windowed runtime accepts them.
	t.Run("scripted drops", func(t *testing.T) {
		plan := fault.NewPlan(1).Drop(fault.Token, 2)
		net := newShardTestNet(t, func(cfg *Config) { cfg.Faults = plan })
		if _, err := net.Shard(2); err != nil {
			t.Fatalf("Shard(2) rejected a scripted-drop plan: %v", err)
		}
		net.FinishWindowed()
	})
}

// TestShardClampsToSwitchCount: asking for more shards than switches
// degrades to one shard per switch (and reports the effective count),
// so callers can pass GOMAXPROCS blindly.
func TestShardClampsToSwitchCount(t *testing.T) {
	net := newShardTestNet(t, nil)
	nSw := net.Topology().NumSwitches()
	got, err := net.Shard(10 * nSw)
	if err != nil {
		t.Fatal(err)
	}
	if got != nSw {
		t.Fatalf("Shard clamped to %d, want switch count %d", got, nSw)
	}
	if net.ShardCount() != nSw {
		t.Fatalf("ShardCount %d != %d", net.ShardCount(), nSw)
	}
	net.FinishWindowed()
}
