package main

import (
	"fmt"
	"slices"

	"fastreg/internal/audit"
	"fastreg/internal/byzantine"
	"fastreg/internal/faultnet"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/transport"
)

// fleet is a scenario's server side: S wire replicas hosted in this
// process behind fault-injecting listeners, each appending its own
// capture log exactly as a deployed regserver -capture would — so the
// run leaves the same evidence a real fleet does and regaudit's merge
// applies unchanged.
type fleet struct {
	addrs    []string
	servers  []*transport.Server
	captures []*audit.Writer
}

// startFleet binds every replica on a loopback port behind plan's
// listener wrapper. Replica i is named "s<i>" in the fault schedule; the
// replicas in spec.liars() get their server logic wrapped in the lying
// server. Capture headers carry the CLEAN protocol name — a
// liar does not announce itself, and the merge needs one protocol across
// logs.
func startFleet(spec *Spec, cfg quorum.Config, plan *faultnet.Plan, captureDir string) (*fleet, error) {
	base, err := protocols.New(spec.Protocol)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	liars := spec.liars()
	for i := 1; i <= cfg.S; i++ {
		impl := base
		if slices.Contains(liars, i) {
			impl = byzantine.Liars(base, i)
		}
		cap, err := audit.NewFileWriter(
			fmt.Sprintf("%s/s%d%s", captureDir, i, audit.TraceExt),
			audit.ServerHeader(i, base.Name(), cfg))
		if err != nil {
			f.Close()
			return nil, err
		}
		if spec.RotateBytes > 0 {
			cap.RotateAt(spec.RotateBytes)
		}
		f.captures = append(f.captures, cap)
		lis, err := plan.Listen("127.0.0.1:0", fmt.Sprintf("s%d", i), "c")
		if err != nil {
			f.Close()
			return nil, err
		}
		srv, err := transport.NewServer(cfg, impl, i, lis, transport.WithServerCapture(cap.Handle))
		if err != nil {
			lis.Close()
			f.Close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, srv.Addr())
	}
	return f, nil
}

// StampEpoch appends a closed audit epoch's boundary record to every
// replica log — the co-hosted fleet's half of the weight-throwing
// cutover, registered via Store.OnAuditEpoch. Sound because a replica's
// capture record is appended before its reply ships: by the time the
// epoch's weight is all home (which is what fires this), every handle
// record of the epoch is already behind the boundary.
func (f *fleet) StampEpoch(n uint64) {
	for _, c := range f.captures {
		c.Epoch(n)
	}
}

// Close stops the replicas and flushes their logs; capture errors are
// returned because a truncated log silently downgrades the verdict from
// binding to advisory.
func (f *fleet) Close() error {
	var firstErr error
	for _, s := range f.servers {
		s.Close()
	}
	for _, c := range f.captures {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
