package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fastreg"
	"fastreg/internal/audit"
	"fastreg/internal/obs"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/transport"
)

// fleetOpts are the ways a pass's fleet differs from the plain one.
type fleetOpts struct {
	// tracer, when set, hosts each replica behind the benchmark's own
	// listener so the replica-side Conn seam is stamped and counted.
	tracer *tracer
	// staleAfter arms transport.WithStaleReadFault on every replica — the
	// correctness gate's negative test.
	staleAfter int64
	// scratch is the directory capture logs go under.
	scratch string
}

// fleet is one pass's system under test: the replicas (TCP workloads
// only), the store opened against them, and the capture logs an audited
// workload writes.
type fleet struct {
	w       workload
	servers []*transport.Server
	logs    []*audit.Writer // replica capture logs
	logDir  string
	store   *fastreg.Store

	epochMu sync.Mutex
	epochAt []int64 // close instant of every audit epoch, ns
}

func qcfg(c fastreg.Config) quorum.Config {
	return quorum.Config{S: c.Servers, T: c.MaxCrashes, R: c.Readers, W: c.Writers}
}

// auditEpoch and rotateBytes are the audited workload's settings.
const (
	auditEpoch  = 250 * time.Millisecond
	rotateBytes = 4 << 20
)

// startFleet hosts the replicas, opens the store and preloads every key
// — everything setup_s times. The replicas run transport.NewServer, the
// path cmd/regserver runs, in this process behind loopback TCP; the
// client opens one connection per replica.
func startFleet(w workload, s *schedule, o fleetOpts) (*fleet, error) {
	f := &fleet{w: w}
	var opts []fastreg.Option
	if w.audited {
		dir, err := os.MkdirTemp(o.scratch, "capture-")
		if err != nil {
			return nil, err
		}
		f.logDir = dir
		opts = append(opts,
			fastreg.WithCapture(f.logDir),
			fastreg.WithAuditEpochs(auditEpoch),
			fastreg.WithCaptureRotation(rotateBytes),
			fastreg.WithMetrics())
	}
	if w.tcp {
		impl, err := protocols.New(string(w.proto))
		if err != nil {
			return nil, err
		}
		cfg := qcfg(w.cfg)
		addrs := make([]string, cfg.S)
		for i := 1; i <= cfg.S; i++ {
			var sopts []transport.ServerOption
			if o.staleAfter > 0 {
				sopts = append(sopts, transport.WithStaleReadFault(o.staleAfter))
			}
			if w.audited {
				lw, err := audit.NewFileWriter(
					filepath.Join(f.logDir, fmt.Sprintf("s%d%s", i, audit.TraceExt)),
					audit.ServerHeader(i, impl.Name(), cfg))
				if err != nil {
					f.close()
					return nil, err
				}
				lw.RotateAt(rotateBytes)
				f.logs = append(f.logs, lw)
				sopts = append(sopts, transport.WithServerCapture(lw.Handle), transport.WithServerObs(obs.New(), 0))
			}
			var lis transport.Listener
			if o.tracer != nil {
				lis, err = o.tracer.listen(i)
			} else {
				lis, err = transport.ListenTCP("127.0.0.1:0")
			}
			if err != nil {
				f.close()
				return nil, err
			}
			srv, err := transport.NewServer(cfg, impl, i, lis, sopts...)
			if err != nil {
				lis.Close()
				f.close()
				return nil, err
			}
			f.servers = append(f.servers, srv)
			addrs[i-1] = srv.Addr()
		}
		opts = append(opts, fastreg.WithTCP(addrs...))
	}
	st, err := fastreg.Open(w.cfg, w.proto, opts...)
	if err != nil {
		f.close()
		return nil, err
	}
	f.store = st
	if w.audited {
		if err := st.OnAuditEpoch(f.stampEpoch); err != nil {
			f.close()
			return nil, err
		}
	}
	if err := f.preload(s); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// stampEpoch writes a closed epoch's boundary into the replica logs this
// process owns, as a co-hosted fleet must (see Store.OnAuditEpoch).
func (f *fleet) stampEpoch(n uint64) {
	for _, lw := range f.logs {
		lw.Epoch(n)
	}
	f.epochMu.Lock()
	f.epochAt = append(f.epochAt, nowNs())
	f.epochMu.Unlock()
}

// preloaders is how many goroutines share the preload.
const preloaders = 16

// preload writes every key w.preload times. It goes through the backend
// seam, not the session handles, because the seam lets one writer
// identity run concurrently on different keys: each goroutine owns a
// disjoint share of the keys, so every (key, writer) pair stays
// sequential as the protocols require, and setup does not take longer
// than the window it prepares.
func (f *fleet) preload(s *schedule) error {
	b := f.store.Backend()
	errs := make(chan error, preloaders)
	for g := 0; g < preloaders; g++ {
		go func() {
			writer := g%f.w.cfg.Writers + 1
			for round := 0; round < f.w.preload; round++ {
				for k := g; k < len(s.keys); k += preloaders {
					if _, err := b.Write(context.Background(), s.keys[k], writer, s.values[(k+round)%len(s.values)]); err != nil {
						errs <- fmt.Errorf("preload %s: %w", s.keys[k], err)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	var first error
	for g := 0; g < preloaders; g++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close stops the store, then the replicas, then flushes their logs; the
// capture directory is left for the caller, which may still audit it.
func (f *fleet) close() {
	if f.store != nil {
		f.store.Close()
		f.store = nil
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.servers = nil
	for _, lw := range f.logs {
		lw.Close()
	}
	f.logs = nil
}

// storeClient drives a store through its session handles, the surface a
// user of the library holds.
type storeClient struct {
	writers []*fastreg.Writer
	readers []*fastreg.Reader
}

func newStoreClient(st *fastreg.Store) (*storeClient, error) {
	cfg := st.Config()
	c := &storeClient{}
	for i := 1; i <= cfg.Writers; i++ {
		h, err := st.Writer(i)
		if err != nil {
			return nil, err
		}
		c.writers = append(c.writers, h)
	}
	for i := 1; i <= cfg.Readers; i++ {
		h, err := st.Reader(i)
		if err != nil {
			return nil, err
		}
		c.readers = append(c.readers, h)
	}
	return c, nil
}

func (c *storeClient) put(ctx context.Context, writer int, key, value string) error {
	_, err := c.writers[writer-1].Put(ctx, key, value)
	return err
}

func (c *storeClient) get(ctx context.Context, reader int, key string) error {
	_, _, _, err := c.readers[reader-1].Get(ctx, key)
	return err
}
