// Scaling study: mine a statistical workload model from a small recorded
// workload, then generate and simulate it at 8x, 32x and 128x the source
// rank count — the paper's trace-once, scale-everywhere workflow without
// re-instrumenting the application (§2).
//
//	go run ./examples/scaling-study
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"atlahs/results"
	"atlahs/sim"
)

func main() {
	// The "recorded" workload: an 8-rank bulk-synchronous application,
	// pulled straight from the generator registry. In a real study this is
	// a schedule converted from an instrumented run (sim.ConvertTraceFile
	// or `atlahs-synth mine -in run.nsys`).
	def, ok := sim.LookupGenerator("bsp")
	if !ok {
		log.Fatal("bsp generator not registered")
	}
	source, err := def.New(sim.GenRequest{
		Synthetic: sim.Synthetic{Pattern: "bsp", Ranks: 8, Bytes: 8192, Phases: 6, CalcNanos: 2000},
		Ranks:     8,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Mine the statistical model: size/count distributions, compute share,
	// traffic classes with destination-offset histograms, depth profile.
	model, err := sim.MineModel(source, "scaling-study: 8-rank bsp")
	if err != nil {
		log.Fatal(err)
	}
	var doc bytes.Buffer
	if err := results.EncodeModelJSON(&doc, model); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined model: %d source ranks, %d source ops, %d phases (%d-byte atlahs.model/v1 doc)\n",
		model.SourceRanks, model.SourceOps, model.Phases, doc.Len())

	// Re-simulate at the source scale and far beyond it. The model is the
	// workload source on the spec — resolution samples it into a schedule,
	// deterministically for (model, ranks, seed), so these runs are
	// content-addressed and cacheable like any other.
	fmt.Println("\n ranks      ops       wire bytes   simulated runtime")
	for _, ranks := range []int{8, 64, 256, 1024} {
		res, err := sim.Run(context.Background(), sim.Spec{
			Workload: sim.Workload{Model: &sim.ModelGen{Ranks: ranks, Seed: 42, Doc: doc.Bytes()}},
			Backend:  "lgs",
			Config:   sim.LGSConfig{Params: sim.HPCParams()},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d  %9d  %11d   %v\n", ranks, res.Ops, res.Sched.SendBytes, res.Runtime)
	}
}
