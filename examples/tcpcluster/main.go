// Tcpcluster: the full deployment shape of a replicated register store in
// one process — three replica servers listening on real loopback TCP
// sockets (each the equivalent of a cmd/regserver process), and a
// fastreg.Open store with the WithTCP backend driving the W2R2 protocol
// against them over the wire: length-prefixed binary frames, one
// connection per server, write coalescing, quorum waits. Mid-run one
// replica is killed; the surviving S−t = 2 keep every operation
// completing, and the recorded history is checked for atomicity.
//
//	go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"fastreg"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/transport"
)

func main() {
	cfg := fastreg.Config{Servers: 3, MaxCrashes: 1, Readers: 2, Writers: 2}
	qcfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}

	// Boot the replica fleet: three listeners on OS-assigned loopback
	// ports, one transport.Server each. In production these are three
	// `regserver` processes on three machines.
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
		fmt.Printf("replica s%d listening on %s\n", i+1, addrs[i])
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	// The client side: a normal Store whose backend is a TCP client of
	// the fleet — only the Open options differ from an in-process store.
	// In production this is any process anywhere.
	store, err := fastreg.Open(cfg, fastreg.W2R2, fastreg.WithTCP(addrs...))
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	keys := []string{"users:alice", "users:bob", "config:flags"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for w := 1; w <= cfg.Writers; w++ {
		h, err := store.Writer(w)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(w int, h *fastreg.Writer) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				key := keys[(w+i)%len(keys)]
				if _, err := h.Put(ctx, key, fmt.Sprintf("w%d#%d", w, i)); err != nil {
					log.Fatalf("put: %v", err)
				}
				if i == 15 && w == 1 {
					fmt.Println("killing replica s3 mid-workload…")
					servers[2].Close() // kernel drops the socket: clients see a dead peer
				}
			}
		}(w, h)
	}
	for r := 1; r <= cfg.Readers; r++ {
		h, err := store.Reader(r)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(r int, h *fastreg.Reader) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				key := keys[(r+i)%len(keys)]
				if _, _, _, err := h.Get(ctx, key); err != nil {
					log.Fatalf("get: %v", err)
				}
			}
		}(r, h)
	}
	wg.Wait()

	r1, _ := store.Reader(1)
	for _, key := range keys {
		v, _, ok, err := r1.Get(ctx, key)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s = %q (ok=%v)\n", key, v, ok)
	}

	res := store.Check()
	fmt.Printf("atomicity over TCP, one replica down: %v (%d ops checked)\n", res.Atomic, res.Operations)
	if !res.Atomic {
		log.Fatal(res.Explanation)
	}
}
