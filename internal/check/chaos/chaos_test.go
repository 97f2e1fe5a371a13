package chaos

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// -chaos.seeds widens the soak matrix (CI's scheduled job passes a
// larger value; the per-PR short matrix uses the default).
var soakSeeds = flag.Int("chaos.seeds", 8, "number of seeded chaos scenarios to soak")

// TestGenerateDeterministic: the same seed yields the same scenario,
// every generated plan parses, and the policy sampling actually covers
// all three mechanisms across the soak's seed range (a generator that
// silently collapsed to one policy would hollow out the soak).
func TestGenerateDeterministic(t *testing.T) {
	policies := map[string]int{}
	for seed := int64(1); seed <= 20; seed++ {
		a, err := Generate(seed, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(seed, 64)
		if err != nil {
			t.Fatal(err)
		}
		if a.Spec() != b.Spec() || a.Policy != b.Policy {
			t.Fatalf("seed %d: %v vs %v", seed, a, b)
		}
		if len(a.Fragments) < 3 || len(a.Fragments) > 6 {
			t.Fatalf("seed %d: %d fragments", seed, len(a.Fragments))
		}
		if _, err := a.policy(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		policies[a.Policy]++
	}
	for _, want := range []string{"RECN", "throttle", "arn"} {
		if policies[want] == 0 {
			t.Fatalf("policy %s never sampled across 20 seeds: %v", want, policies)
		}
	}
}

// TestChaosSoak is the soak harness: seeded randomized compound fault
// plans under full invariant checking. A failing seed is minimized to
// the smallest still-failing fragment set before reporting, so the
// log carries a directly reproducible minimal spec.
func TestChaosSoak(t *testing.T) {
	seeds := *soakSeeds
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc, err := Generate(seed, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Run(); err != nil {
				min, merr := Minimize(sc)
				t.Fatalf("scenario failed: %v\nminimized to %v: %v", err, min, merr)
			}
		})
	}
}

// TestChaosSoakSharded runs a subset of the soak seeds on the windowed
// runtime with 4 shard engines (CI adds -race, which is the point: the
// window barriers are the only synchronization, so any missing
// happens-before edge surfaces here). Every generated plan runs,
// scripted drops included: they are per-channel quotas, like every
// other fault stream.
func TestChaosSoakSharded(t *testing.T) {
	seeds := *soakSeeds
	if seeds > 6 {
		seeds = 6
	}
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc, err := Generate(seed, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.RunSharded(4); err != nil {
				t.Fatalf("sharded scenario failed: %v", err)
			}
		})
	}
}

// TestMinimizeShrinksFailure: Minimize on a scenario made to fail by a
// single poisoned fragment strips the benign fragments around it. The
// poison is a flap whose link never comes back inside the horizon —
// the link-up lands after every queued event, so the run wedges and
// the checker reports it.
func TestMinimizeShrinksFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several soak iterations")
	}
	// Poison the link of a host that is guaranteed to inject: the
	// workload derives its hotspot from Seed^0x5eed, and (hot+1)%hosts
	// is always a hotspot source.
	hot := rand.New(rand.NewSource(99 ^ 0x5eed)).Intn(64)
	sc := Scenario{
		Seed:  99,
		Hosts: 64,
		Until: 30000, // 30 ns: injection stops almost immediately
		Fragments: []string{
			"droprate=credit:0.001",
			"corrupt=1000000",
			// Down for far longer than the settle window: that host's
			// traffic wedges and the run must fail.
			fmt.Sprintf("flaphost=%d:1ns:1000ms", (hot+1)%64),
		},
	}
	err := sc.Run()
	if err == nil {
		t.Skip("poison scenario unexpectedly passed; harness semantics changed")
	}
	min, merr := Minimize(sc)
	if merr == nil {
		t.Fatal("minimized scenario passes")
	}
	if len(min.Fragments) != 1 || !strings.HasPrefix(min.Fragments[0], "flaphost=") {
		t.Fatalf("minimization kept %v, want just the flaphost poison", min.Fragments)
	}
}
