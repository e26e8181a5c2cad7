// Command regserver hosts ONE replica of a register cluster over real TCP
// — the server half of the paper's system model deployed as a process.
// Replicas never talk to each other (the protocols are strictly
// client-server), so a fleet is just S regserver processes; clients
// (cmd/regstorm -cluster, or a fastreg.Open store with WithTCP) connect
// to all of them and drive the round-based protocols.
//
// The cluster shape is fixed by flags and must match on every replica and
// client — the shape, protocol and operational flags (-evict-ttl,
// -capture, …) are the internal/cliflags surface: either -cluster
// (comma-separated host:port list; S is its length and -replica selects
// which entry this process is) or -servers.
//
// Usage:
//
//	regserver -replica 1 -cluster :7001,:7002,:7003 [-t 1] [-readers 4] [-writers 4]
//	regserver -replica 2 -listen :7002 -servers 3 [-t 1] [-evict-ttl 10m] ...
//
// The replica serves every key from sharded, lazily-created per-key
// protocol state, handling each client connection's batches on that
// connection's own loop; kill the process to crash the replica for all
// keys at once.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"fastreg/internal/byzantine"
	"fastreg/internal/cliflags"
	"fastreg/internal/obs"
	"fastreg/internal/transport"
)

func main() {
	shared := cliflags.Register(flag.CommandLine)
	var (
		replica    = flag.Int("replica", 1, "which replica this process is: s_i (1-based)")
		listen     = flag.String("listen", "", "listen address (default: the -cluster entry for -replica)")
		staleAfter = flag.Int64("fault-stale-after", 0, "FAULT INJECTION (audit pipeline testing only): after a key's first N handled requests, serve its reads the initial value while still acking writes — a frozen, lying replica the capture/regaudit pipeline must catch")
		byz        = flag.Bool("byzantine", false, "BYZANTINE REPLICA (scenario testing only): wrap the server logic in internal/byzantine's LyingServer — every read-path reply carries a fabricated maximal-tag value; clients with vouched reads (fastreg.WithVouchedReads) must shrug off up to t such replicas")
	)
	flag.Parse()

	stopProfiles, err := shared.StartProfiles()
	if err != nil {
		fatal(err)
	}

	cfg, err := shared.Config()
	if err != nil {
		fatal(err)
	}
	addr, err := shared.ListenAddr(*replica, *listen)
	if err != nil {
		fatal(err)
	}
	impl, err := shared.Impl()
	if err != nil {
		fatal(err)
	}
	if *byz {
		impl = byzantine.Liars(impl, *replica)
		fmt.Printf("regserver s%d: BYZANTINE — read-path replies carry a forged maximal-tag value\n", *replica)
	}
	reg := shared.Registry()
	stopDebug, err := shared.ServeDebug(obs.Handler(reg, nil))
	if err != nil {
		fatal(err)
	}
	opts := shared.ServerOptions(reg)
	capture, err := shared.ServerCapture(*replica)
	if err != nil {
		fatal(err)
	}
	if capture != nil {
		opts = append(opts, transport.WithServerCapture(capture.Handle))
	}
	if *staleAfter > 0 {
		opts = append(opts, transport.WithStaleReadFault(*staleAfter))
		fmt.Printf("regserver s%d: FAULT INJECTION ACTIVE — serving stale reads after %d requests per key\n", *replica, *staleAfter)
	}

	lis, err := transport.ListenTCP(addr)
	if err != nil {
		fatal(err)
	}
	srv, err := transport.NewServer(cfg, impl, *replica, lis, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("regserver %s (%s, %s) listening on %s\n", srv.ID(), shared.Protocol, cfg, srv.Addr())
	if shared.DebugAddr != "" {
		fmt.Printf("regserver %s: debug endpoint on http://%s/metrics\n", srv.ID(), shared.DebugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("regserver %s: shutting down (%d keys served)\n", srv.ID(), srv.KeyCount())
	srv.Close()
	if capture != nil {
		if err := capture.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "regserver: trace log:", err)
		}
	}
	stopDebug()
	stopProfiles()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "regserver:", err)
	os.Exit(1)
}
