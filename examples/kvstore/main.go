// Kvstore: a replicated key-value store on per-key atomic registers — the
// storage-system shape (Cassandra/Redis/Riak) that motivates the paper.
// The store is fastreg.Open's default backend, the multiplexed runtime:
// one fleet of 7 server goroutines serves all keys (key-tagged messages,
// sharded per-key state), instead of a full cluster per key. Two writer
// and two reader session handles hammer three keys concurrently while a
// server crashes mid-run — killing its replica of every key at once;
// every per-key history is then checked for atomicity (locality,
// Section 2.1).
//
//	go run ./examples/kvstore
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"

	"fastreg"
)

func main() {
	cfg := fastreg.Config{Servers: 7, MaxCrashes: 1, Readers: 2, Writers: 2}
	store, err := fastreg.Open(cfg, fastreg.W2R1) // fast reads: 2 < 7/1 − 2
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()

	keys := []string{"users:alice", "users:bob", "config:flags"}
	var wg sync.WaitGroup
	for c := 1; c <= 2; c++ {
		w, err := store.Writer(c)
		if err != nil {
			log.Fatal(err)
		}
		r, err := store.Reader(c)
		if err != nil {
			log.Fatal(err)
		}
		c := c
		wg.Add(2)
		go func() { // writer session
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := keys[i%len(keys)]
				if _, err := w.Put(ctx, k, fmt.Sprintf("w%d-v%d", c, i)); err != nil {
					log.Printf("put: %v", err)
					return
				}
			}
		}()
		go func() { // reader session
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := keys[i%len(keys)]
				if _, _, _, err := r.Get(ctx, k); err != nil {
					log.Printf("get: %v", err)
					return
				}
				if i == 5 && c == 1 {
					store.CrashServer(4)
					log.Printf("crashed server s4 mid-run (t=%d tolerates it)", cfg.MaxCrashes)
				}
			}
		}()
	}
	wg.Wait()

	r1, _ := store.Reader(1)
	for _, k := range keys {
		v, _, ok, err := r1.Get(ctx, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s = %q (written: %v)\n", k, v, ok)
	}
	res := store.Check()
	fmt.Printf("atomicity of all %d operations across %d keys: %v (%s)\n",
		res.Operations, len(store.Keys()), res.Atomic, res.Explanation)
	fmt.Printf("goroutines serving %d keys: %d — one multiplexed fleet; stays flat as keys grow, where per-key clusters would add %d goroutines per key\n",
		len(store.Keys()), runtime.NumGoroutine(), cfg.Servers)
	if !res.Atomic {
		os.Exit(1)
	}
}
