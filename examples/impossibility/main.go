// Impossibility: the executable Theorem 1. The three-phase chain argument
// of Sections 3–4 is run against a full-info fast-write candidate; the
// program prints the chain construction (critical server, β chains, zigzag
// links) and the concrete execution whose history violates atomicity.
//
//	go run ./examples/impossibility
package main

import (
	"fmt"
	"log"
	"os"

	"fastreg"
)

func main() {
	fmt.Println("Theorem 1: no fast-write (W1R2) multi-writer atomic register exists")
	fmt.Println("for W ≥ 2, R ≥ 2, t ≥ 1. Running the chain argument as code:")
	fmt.Println()

	for _, s := range []int{3, 5, 7} {
		rep, err := fastreg.ProveFastWriteImpossible(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.Summary)
		mustViolate(rep)
		fmt.Printf("  → critical server s%d, violation exhibited at %s (links intact: %v)\n\n",
			rep.CriticalServer, rep.FirstViolation, rep.LinksHold)
	}

	fmt.Println("The naive tag-based fast write fails even earlier (at the chain ends):")
	rep, err := fastreg.ProveFastWriteImpossibleFor(fastreg.W1R2, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary)
	mustViolate(rep)
}

// mustViolate exits 1 when the argument found no violation, which would
// contradict Theorem 1.
func mustViolate(rep *fastreg.ImpossibilityReport) {
	if rep.Violations == 0 {
		fmt.Fprintf(os.Stderr, "%s at S=%d: no violation found\n", rep.Protocol, rep.Servers)
		os.Exit(1)
	}
}
