// Fastread: the paper's W2R1 algorithm (Algorithms 1 & 2) against the W2R2
// baseline. Where R < S/t − 2 holds, reads finish in ONE round trip instead
// of two — at identical atomicity guarantees. The deterministic simulator
// makes the latency difference exact.
//
//	go run ./examples/fastread
package main

import (
	"fmt"
	"log"
	"os"

	"fastreg"
)

func main() {
	cfg := fastreg.DefaultConfig() // S=5, t=1, R=2: 2 < 5/1 − 2 ✓
	fmt.Printf("configuration %+v\n", cfg)
	fmt.Printf("fast read feasible (R < S/t − 2): %v\n",
		fastreg.FastReadFeasible(cfg.Servers, cfg.MaxCrashes, cfg.Readers))
	fmt.Printf("max readers for fast reads at S=%d, t=%d: %d\n\n",
		cfg.Servers, cfg.MaxCrashes, fastreg.MaxFastReaders(cfg.Servers, cfg.MaxCrashes))

	const oneWay = 50 // constant one-way delay → RTT = 100 virtual time units
	atomic := true
	for _, p := range []fastreg.Protocol{fastreg.W2R2, fastreg.W2R1} {
		sim, err := fastreg.NewSimulation(cfg, p, fastreg.SimOptions{MinDelay: oneWay, MaxDelay: oneWay})
		if err != nil {
			log.Fatal(err)
		}
		res := sim.Run(10, 10)
		fmt.Printf("%s:\n  write latency %s (%.1f RTT)\n  read  latency %s (%.1f RTT)\n  atomic: %v\n",
			p,
			res.WriteLatency, res.WriteLatency.Mean/(2*oneWay),
			res.ReadLatency, res.ReadLatency.Mean/(2*oneWay),
			res.Check.Atomic)
		atomic = atomic && res.Check.Atomic
	}

	fmt.Println("\nthe fast read halves read latency; past the boundary the paper proves it impossible:")
	fmt.Printf("  S=5 t=1 R=3 feasible? %v (3 ≥ 5/1 − 2)\n", fastreg.FastReadFeasible(5, 1, 3))
	if !atomic {
		os.Exit(1)
	}
}
