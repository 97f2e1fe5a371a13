// Command recntrace generates, inspects and replays SAN I/O traces in
// the recn-trace text format (the substitute for the paper's HP cello
// traces — see DESIGN.md §5).
//
// Usage:
//
//	recntrace -gen -out cello.trace [-hosts 64] [-duration-us 800] [-seed 7]
//	recntrace -stats cello.trace
//	recntrace -replay cello.trace [-cf 20] [-policy RECN] [-shards 4]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro"
)

func main() {
	var (
		gen      = flag.Bool("gen", false, "generate a synthetic cello-model trace")
		out      = flag.String("out", "cello.trace", "output file for -gen")
		hosts    = flag.Int("hosts", 64, "network size")
		duration = flag.Float64("duration-us", 800, "generated trace length in µs")
		seed     = flag.Int64("seed", 7, "generator seed")
		genCF    = flag.Float64("gen-cf", 20, "time compression applied while generating")
		stats    = flag.String("stats", "", "print statistics of a trace file")
		replay   = flag.String("replay", "", "replay a trace file through the simulator")
		cf       = flag.Float64("cf", 20, "time compression factor for -replay")
		shards   = flag.Int("shards", 0, "shard the replay across this many cores (windowed runtime; results are identical at any value ≥ 1 but differ deterministically from the serial engine; 0 = serial)")
		policy   = flag.String("policy", "RECN", "queuing mechanism for -replay")
		chk      = flag.Bool("check", false, "run the replay under the runtime invariant checker and verify the end-of-run accounting")
	)
	flag.Parse()
	if *shards < 0 {
		check(fmt.Errorf("-shards %d: want 0 (serial) or a positive shard count", *shards))
	}

	switch {
	case *gen:
		tr, err := repro.GenerateCelloTrace(*hosts, repro.Time(*duration*float64(repro.Microsecond)), *genCF, *seed)
		if err != nil {
			check(fmt.Errorf("-gen -gen-cf %v: %w", *genCF, err))
		}
		f, err := os.Create(*out)
		check(err)
		check(repro.WriteTrace(f, tr))
		check(f.Close())
		fmt.Printf("wrote %d records to %s\n", len(tr), *out)
	case *stats != "":
		tr := load(*stats)
		printStats(tr)
	case *replay != "":
		// Validate the mechanism name before touching the (possibly
		// large) trace file or building the fabric.
		pol, err := repro.ParsePolicy(*policy)
		check(err)
		tr := load(*replay)
		net, err := newReplayNet(*hosts, pol, *chk)
		check(err)
		if *shards > 0 {
			// Shard before installing the trace so every record schedules
			// on its source host's shard engine.
			_, err := net.Shard(*shards)
			check(err)
		}
		if err := repro.ReplayTrace(net, tr, *cf); err != nil {
			check(fmt.Errorf("-replay %s -cf %v: %w", *replay, *cf, err))
		}
		if *shards > 0 {
			net.DrainWindowed()
		} else {
			net.Engine.Drain()
		}
		if *chk {
			check(net.FinalCheck())
			fmt.Println("invariant checks passed")
		}
		fmt.Printf("policy %s, compression %.0f:\n", pol, *cf)
		fmt.Printf("  delivered %d packets (%d bytes) in %v simulated\n",
			net.DeliveredPackets, net.DeliveredBytes, net.Engine.Now())
		fmt.Printf("  order violations: %d, host-side drops: %d\n", net.OrderViolations, net.DroppedMessages)
		if pol == repro.PolicyRECN {
			st := net.RECNStats()
			fmt.Printf("  SAQ allocations: %d, deallocations: %d, refusals: %d\n",
				st.Allocs, st.Deallocs, st.Refusals)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// newReplayNet builds the replay network, optionally under the
// invariant checker (a violation mid-replay panics with the
// diagnostics snapshot; FinalCheck covers the end-of-run accounting).
func newReplayNet(hosts int, pol repro.Policy, chk bool) (*repro.Network, error) {
	topo, err := repro.NewTopology(hosts)
	if err != nil {
		return nil, err
	}
	cfg := repro.DefaultConfig(topo)
	cfg.Policy = pol
	if chk {
		cfg.Checker = repro.NewChecker(repro.CheckConfig{})
	}
	return repro.NewNetworkConfig(cfg)
}

func load(path string) repro.Trace {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	tr, err := repro.ReadTrace(f)
	check(err)
	return tr
}

func printStats(tr repro.Trace) {
	if len(tr) == 0 {
		fmt.Println("empty trace")
		return
	}
	var bytes int64
	sizes := make([]int, len(tr))
	perDst := map[int]int64{}
	for i, r := range tr {
		bytes += int64(r.Size)
		sizes[i] = r.Size
		perDst[r.Dst] += int64(r.Size)
	}
	sort.Ints(sizes)
	span := tr[len(tr)-1].T - tr[0].T
	fmt.Printf("records:     %d\n", len(tr))
	fmt.Printf("span:        %v\n", span)
	fmt.Printf("total bytes: %d (offered %.3f B/ns)\n", bytes, float64(bytes)/span.Nanos())
	fmt.Printf("sizes:       min %d  p50 %d  p99 %d  max %d\n",
		sizes[0], sizes[len(sizes)/2], sizes[len(sizes)*99/100], sizes[len(sizes)-1])
	type kv struct {
		dst int
		b   int64
	}
	var tops []kv
	for d, b := range perDst {
		tops = append(tops, kv{d, b})
	}
	sort.Slice(tops, func(i, j int) bool { return tops[i].b > tops[j].b })
	fmt.Printf("hottest destinations:")
	for i := 0; i < 5 && i < len(tops); i++ {
		fmt.Printf(" %d(%.0f%%)", tops[i].dst, 100*float64(tops[i].b)/float64(bytes))
	}
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "recntrace:", err)
		os.Exit(1)
	}
}
