// LLM training end to end: generate a distributed Llama training workload,
// trace it into an nsys-like report, and replay the raw trace directly
// through the sim facade — the "nsys" workload frontend runs the 4-stage
// GOAL pipeline under the hood — comparing the message-level and
// packet-level backends, including a "what-if" regrouping of the same GPU
// trace onto a different node count (paper §3.1.2 stage 4) declared purely
// in the frontend config.
//
//	go run ./examples/llm-training
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"atlahs/internal/workload/llm"
	"atlahs/sim"
)

func main() {
	ctx := context.Background()
	cfg := llm.Config{
		Model: llm.Llama7B(),
		Par:   llm.Parallelism{TP: 1, PP: 2, DP: 8, EP: 1, GlobalBatch: 32},
		Scale: 1e-4, // shrink bytes/compute so the packet simulation is instant
		Seed:  7,
	}
	rep, err := llm.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sum := llm.Summarize(rep)
	fmt.Printf("traced %s on %d GPUs: %d records, %d communicators, %.1f MiB collectives, %.1f KiB P2P\n",
		cfg.Model.Name, sum.GPUs, sum.Records, sum.Comms,
		float64(sum.CollBytes)/(1<<20), float64(sum.P2PBytes)/1024)

	// Serialise the report: from here on everything flows through the
	// facade exactly as it would from an nsys file on disk.
	var raw bytes.Buffer
	if _, err := rep.WriteTo(&raw); err != nil {
		log.Fatal(err)
	}

	for _, gpn := range []int{4, 2} {
		lgsRes, err := sim.Run(ctx, sim.Spec{
			Workload: sim.Workload{
				Trace:          raw.Bytes(), // "nsys" frontend, sniffed
				FrontendConfig: sim.NsysConfig{GPUsPerNode: gpn},
			},
			Backend: "lgs",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%d GPUs/node -> %d nodes: %d GOAL ops, %.2f MiB inter-node traffic\n",
			gpn, lgsRes.Ranks, lgsRes.Sched.Ops, float64(lgsRes.Sched.SendBytes)/(1<<20))
		fmt.Printf("  ATLAHS LGS:  %v\n", lgsRes.Runtime)

		pktRes, err := sim.Run(ctx, sim.Spec{
			Workload: sim.Workload{
				Trace:          raw.Bytes(),
				FrontendConfig: sim.NsysConfig{GPUsPerNode: gpn},
			},
			Backend: "pkt",
			Config:  sim.PktConfig{HostsPerToR: 4, Cores: 4, CC: "mprdma", Seed: 7},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ATLAHS pkt:  %v (%d packets, %d drops)\n", pktRes.Runtime, pktRes.Net.PktsSent, pktRes.Net.Drops)
	}
}
