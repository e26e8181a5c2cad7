// Quickstart: a 5-server multi-writer atomic register store
// (Lynch–Shvartsman W2R2) with two writers and two readers, matching
// Fig 1 of the paper — through the fastreg.Open API: the backend
// (in-process here; WithTCP for a deployed fleet) is configuration, and
// clients are session handles bound to one identity each.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"fastreg"
)

func main() {
	// S=5 servers tolerating t=1 crash, 2 readers, 2 writers — the paper's
	// canonical configuration.
	cfg := fastreg.DefaultConfig()

	store, err := fastreg.Open(cfg, fastreg.W2R2)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()

	// Bind the identities once; out-of-range indices fail here, not at
	// every call.
	w1, _ := store.Writer(1)
	w2, _ := store.Writer(2)

	// Two writers write; the register orders them by (ts, wid) tags.
	v1, err := w1.Put(ctx, "greeting", "from writer 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("w1 wrote %q as version %s\n", "from writer 1", v1)

	v2, err := w2.Put(ctx, "greeting", "from writer 2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("w2 wrote %q as version %s\n", "from writer 2", v2)

	// Both readers see the latest value.
	for i := 1; i <= cfg.Readers; i++ {
		r, _ := store.Reader(i)
		val, ver, _, err := r.Get(ctx, "greeting")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("r%d read %q (version %s)\n", i, val, ver)
	}

	// Crash a server — within t, everything keeps working.
	store.CrashServer(3)
	fmt.Println("crashed server s3")
	r1, _ := store.Reader(1)
	val, ver, _, err := r1.Get(ctx, "greeting")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("r1 read %q (version %s) after the crash\n", val, ver)

	// The execution we just produced is atomic (Definition 2.1).
	res := store.Check()
	fmt.Printf("atomicity check over %d operations: %v\n", res.Operations, res.Atomic)
	if !res.Atomic {
		os.Exit(1)
	}
}
