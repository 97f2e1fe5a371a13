// Faults: survive lost control messages and a link flap.
//
// The paper assumes a lossless, fault-free fabric: every credit, token
// and Xon/Xoff arrives. This example breaks that assumption — it drops
// RECN control messages, randomly discards credits, and takes a switch
// link down for 40 µs mid-run — and shows the watchdog/recovery layer
// (token reclaim, Xoff retransmit, Xon override, credit resync) still
// delivering every injected packet.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const scale = 0.25 // compress the paper's 1600 µs run to 400 µs

	fmt.Println("corner case 2 under fault injection (64 hosts, RECN):")
	fmt.Println("dropped tokens/Xoffs/notifications, 1% credit loss, one link flap")
	fmt.Println()

	for _, faulty := range []bool{false, true} {
		c, err := repro.Corner(2, 64, 64, scale)
		if err != nil {
			log.Fatal(err)
		}
		run := repro.Run{
			Hosts:    64,
			Policy:   repro.PolicyRECN,
			Workload: c.Install,
			Until:    c.SimEnd,
			DrainAll: true, // drain and verify the quiesce invariants
		}
		if faulty {
			// Scripted drops hit the first messages of each kind on
			// every link (the congestion tree's setup phase); the rates
			// keep hurting it for the rest of the run. Notifications are
			// lost at random: a link carries only a few, and losing all
			// of them would stop the trees — and their tokens — forming.
			plan := repro.NewFaultPlan(42).
				Drop(repro.FaultToken, 4).
				Drop(repro.FaultXoff, 2).
				Rule(repro.FaultNotify, repro.FaultRule{DropProb: 0.3}).
				Rule(repro.FaultCredit, repro.FaultRule{DropProb: 0.01}).
				Flap(repro.LinkFlap{Switch: 0, Port: 4,
					Down: 100 * repro.Microsecond, Up: 140 * repro.Microsecond})
			run.Faults = plan
			run.Recovery = repro.DefaultFaultRecovery()
		}
		res, err := run.Execute()
		if err != nil {
			log.Fatal(err)
		}
		label := "clean"
		if faulty {
			label = "faulty"
		}
		fmt.Printf("%-7s injected=%d delivered=%d order_violations=%d\n",
			label, res.Injected, res.Delivered, res.OrderViolations)
		if res.Faults != nil {
			fmt.Printf("        %s\n", res.Faults)
		}
		if res.Injected != res.Delivered {
			log.Fatalf("%s run lost packets", label)
		}
	}
	fmt.Println()
	fmt.Println("both runs drain completely: the fabric never drops payload,")
	fmt.Println("and the recovery layer reclaims leaked SAQs, retransmits lost")
	fmt.Println("Xoffs and restores lost credits, so faults cost throughput")
	fmt.Println("but never delivery.")
}
