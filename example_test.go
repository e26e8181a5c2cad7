package fastreg_test

import (
	"context"
	"fmt"
	"log"

	"fastreg"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/transport"
)

// ExampleOpen runs a replicated KV store on the default in-process
// backend: one multiplexed fleet of 5 server goroutines serves every
// key, and clients are session handles bound to one identity each.
func ExampleOpen() {
	cfg := fastreg.DefaultConfig() // S=5, t=1, R=2, W=2 — the paper's shape
	store, err := fastreg.Open(cfg, fastreg.W2R2)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()

	w, err := store.Writer(1) // identity bound once, range-checked here
	if err != nil {
		log.Fatal(err)
	}
	r, err := store.Reader(1)
	if err != nil {
		log.Fatal(err)
	}

	if _, err := w.Put(ctx, "users:alice", "hello"); err != nil {
		log.Fatal(err)
	}
	v, ver, ok, err := r.Get(ctx, "users:alice")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s %v %s\n", v, ok, ver)

	store.CrashServer(3) // within t=1: everything keeps completing
	v, _, _, err = r.Get(ctx, "users:alice")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v, store.Check().Atomic)
	// Output:
	// hello true (1,w1)
	// hello true
}

// ExampleOpen_tcp drives the same store code against replicas behind
// real TCP: three transport.Servers on loopback stand in for three
// cmd/regserver processes — only the Open options change.
func ExampleOpen_tcp() {
	qcfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	servers := make([]*transport.Server, qcfg.S)
	addrs := make([]string, qcfg.S)
	for i := range servers {
		lis, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		servers[i], err = transport.NewServer(qcfg, protocols.Must("W2R2"), i+1, lis)
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = servers[i].Addr()
		defer servers[i].Close()
	}

	cfg := fastreg.Config{Servers: 3, MaxCrashes: 1, Readers: 2, Writers: 2}
	store, err := fastreg.Open(cfg, fastreg.W2R2, fastreg.WithTCP(addrs...))
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()

	w, _ := store.Writer(1)
	r, _ := store.Reader(1)
	if _, err := w.Put(ctx, "config:flags", "on"); err != nil {
		log.Fatal(err)
	}
	v, _, ok, err := r.Get(ctx, "config:flags")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v, ok, store.Check().Atomic)
	// Output:
	// on true true
}

// ExampleStore_Writer shows the handle misuse guards: out-of-range
// identities fail at creation, and a handle rejects overlapping calls
// instead of corrupting protocol state.
func ExampleStore_Writer() {
	store, err := fastreg.Open(fastreg.DefaultConfig(), fastreg.W2R2)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	if _, err := store.Writer(99); err != nil {
		fmt.Println(err)
	}
	w, _ := store.Writer(2)
	fmt.Println(w.Index())
	// Output:
	// fastreg: writer 99 out of range [1,2]
	// 2
}
