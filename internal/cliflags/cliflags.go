// Package cliflags is the one definition of the command-line surface the
// deployable binaries share. cmd/regserver and cmd/regclient must agree
// on the cluster shape (S, t, R, W) and protocol name for a deployment
// to make sense, and they expose the same operational knobs (-evict-ttl,
// -capture, the diagnostics); registering the flags and deriving the
// validated quorum.Config from one helper keeps the two binaries'
// surfaces from drifting — the same way internal/protocols keeps their
// protocol names identical.
package cliflags

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fastreg"
	"fastreg/internal/audit"
	"fastreg/internal/obs"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/transport"
)

// Flags holds the shared flag values after parsing.
type Flags struct {
	Cluster  string
	Servers  int
	T        int
	Readers  int
	Writers  int
	Protocol string

	EvictTTL   time.Duration
	CaptureDir string
	Seed       int64

	*DiagFlags
}

// DiagFlags is the diagnostics surface EVERY fleet binary exposes the
// same way — regserver, regclient, regaudit and regstorm all register
// it, so an operator can point -debug-addr or -cpuprofile at any process
// of a deployment without checking which binary it is. Flags embeds it;
// binaries without the full shared surface use RegisterDiag alone.
type DiagFlags struct {
	DebugAddr  string
	SlowOp     time.Duration
	CPUProfile string
	MemProfile string
}

// RegisterDiag installs only the diagnostics flags on fs.
func RegisterDiag(fs *flag.FlagSet) *DiagFlags {
	d := &DiagFlags{}
	fs.StringVar(&d.DebugAddr, "debug-addr", "", "serve the debug HTTP endpoint (/metrics, /healthz, /debug/slowops, /debug/pprof) on this address and enable metrics collection (e.g. 127.0.0.1:6060; empty = disabled)")
	fs.DurationVar(&d.SlowOp, "slow-op", 0, "slow-operation threshold: clients trace and dump operations at least this slow, servers count request batches handled this slowly (0 = off)")
	fs.StringVar(&d.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file (stopped and flushed at shutdown)")
	fs.StringVar(&d.MemProfile, "memprofile", "", "write a pprof heap profile to this file at shutdown")
	return d
}

// Register installs the shared flags on fs (flag.CommandLine in the
// binaries) and returns the struct they parse into. Command-specific
// flags (regserver's -replica/-listen, regclient's workload shape) stay
// in their own mains.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Cluster, "cluster", "", "comma-separated host:port list of ALL replicas (sets the server count)")
	fs.IntVar(&f.Servers, "servers", 3, "number of servers S (ignored when -cluster is set)")
	fs.IntVar(&f.T, "t", 1, "crash tolerance t")
	fs.IntVar(&f.Readers, "readers", 4, "number of readers R in the cluster shape")
	fs.IntVar(&f.Writers, "writers", 4, "number of writers W in the cluster shape")
	fs.StringVar(&f.Protocol, "protocol", "W2R2", "register protocol ("+strings.Join(protocols.Names(), ", ")+")")
	fs.DurationVar(&f.EvictTTL, "evict-ttl", 0, "expire per-key state idle for this long (0 = keep all state forever); on a server this is fleet-wide TTL-expiry semantics for the keys, on a client it bounds the registry (protocol state AND recorded histories — don't combine with -check unless keys stay hotter than the TTL)")
	fs.StringVar(&f.CaptureDir, "capture", "", "append audit trace logs (.trlog) to this directory — servers log every handled request, clients every completed operation; `regaudit check DIR` then verifies the whole multi-process run")
	registerSeed(fs, &f.Seed)
	f.DiagFlags = RegisterDiag(fs)
	return f
}

// RegisterSeed installs only the shared -seed flag on fs — for binaries
// (cmd/regstorm) that don't carry the full cluster surface but must stay
// byte-for-byte reproducible. Every random draw in internal/loadgen and
// internal/faultnet flows from this one value via deterministic
// sub-seeding, so two runs with the same seed replay the same key
// choices, arrival times and fault schedule.
func RegisterSeed(fs *flag.FlagSet) *int64 {
	p := new(int64)
	registerSeed(fs, p)
	return p
}

func registerSeed(fs *flag.FlagSet, p *int64) {
	fs.Int64Var(p, "seed", 1, "deterministic seed for every random choice (workload keys/arrivals, fault schedules); the same seed replays the same run")
}

// Addrs returns the parsed -cluster list (nil when unset).
func (f *Flags) Addrs() []string {
	if f.Cluster == "" {
		return nil
	}
	return strings.Split(f.Cluster, ",")
}

// serverCount is the one derivation of S: the -cluster list's length
// when given, -servers otherwise.
func (f *Flags) serverCount() int {
	if addrs := f.Addrs(); addrs != nil {
		return len(addrs)
	}
	return f.Servers
}

// Config derives the validated cluster shape.
func (f *Flags) Config() (quorum.Config, error) {
	cfg := quorum.Config{S: f.serverCount(), T: f.T, R: f.Readers, W: f.Writers}
	if err := cfg.Validate(); err != nil {
		return quorum.Config{}, err
	}
	return cfg, nil
}

// Impl resolves the -protocol name.
func (f *Flags) Impl() (register.Protocol, error) { return protocols.New(f.Protocol) }

// ServerOptions maps the shared knobs onto transport.Server options.
// reg (nil when -debug-addr is unset) is the replica's metric registry;
// -slow-op doubles as the server's slow-batch threshold.
func (f *Flags) ServerOptions(reg *obs.Registry) []transport.ServerOption {
	var opts []transport.ServerOption
	if f.EvictTTL > 0 {
		opts = append(opts, transport.WithServerEviction(f.EvictTTL))
	}
	if reg != nil || f.SlowOp > 0 {
		opts = append(opts, transport.WithServerObs(reg, f.SlowOp))
	}
	return opts
}

// StoreOptions maps the shared knobs onto fastreg.Open options for a
// client binary driving the fleet at Addrs — the client-side counterpart
// of ServerOptions.
func (f *Flags) StoreOptions() []fastreg.Option {
	opts := []fastreg.Option{fastreg.WithTCP(f.Addrs()...)}
	if f.EvictTTL > 0 {
		opts = append(opts, fastreg.WithEvictionTTL(f.EvictTTL))
	}
	if f.CaptureDir != "" {
		opts = append(opts, fastreg.WithCapture(f.CaptureDir))
	}
	if f.DebugAddr != "" {
		opts = append(opts, fastreg.WithMetrics())
	}
	if f.SlowOp > 0 {
		opts = append(opts, fastreg.WithSlowOpTrace(f.SlowOp))
	}
	return opts
}

// Registry returns a fresh metric registry when -debug-addr is set, nil
// otherwise — nil being internal/obs's disabled state, so the binary's
// instrumentation costs nothing without the flag.
func (d *DiagFlags) Registry() *obs.Registry {
	if d.DebugAddr == "" {
		return nil
	}
	return obs.New()
}

// ServeDebug starts the debug HTTP endpoint on -debug-addr serving h
// (typically obs.Handler or Store.DebugHandler) and returns a stop
// function. With the flag unset both the serve and the stop are no-ops.
// The listener binds synchronously, so a bad address fails startup
// rather than logging from a goroutine later.
func (d *DiagFlags) ServeDebug(h http.Handler) (stop func(), err error) {
	if d.DebugAddr == "" {
		return func() {}, nil
	}
	lis, err := net.Listen("tcp", d.DebugAddr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(lis)
	return func() { srv.Close() }, nil
}

// StartProfiles begins CPU profiling when -cpuprofile is set and returns
// a stop function that finishes both profiles (writing the -memprofile
// heap snapshot after a final GC). The stop function is safe to call
// exactly once, typically deferred from main; with neither flag set it
// is a no-op.
func (d *DiagFlags) StartProfiles() (stop func(), err error) {
	var cpuF *os.File
	if d.CPUProfile != "" {
		cpuF, err = os.Create(d.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if d.MemProfile != "" {
			memF, err := os.Create(d.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(memF); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
			memF.Close()
		}
	}, nil
}

// ServerCapture opens replica i's audit trace log in the -capture
// directory ("s<i>.trlog"), returning nil when capture is off. The
// caller wires it via transport.WithServerCapture and closes it at
// shutdown.
func (f *Flags) ServerCapture(replica int) (*audit.Writer, error) {
	if f.CaptureDir == "" {
		return nil, nil
	}
	cfg, err := f.Config()
	if err != nil {
		return nil, err
	}
	impl, err := f.Impl()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(f.CaptureDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(f.CaptureDir, fmt.Sprintf("s%d%s", replica, audit.TraceExt))
	return audit.NewFileWriter(path, audit.ServerHeader(replica, impl.Name(), cfg))
}

// ListenAddr resolves which address replica i (1-based) should bind:
// listen when set, else the -cluster entry for the replica.
func (f *Flags) ListenAddr(replica int, listen string) (string, error) {
	addrs := f.Addrs()
	if addrs != nil {
		if replica >= 1 && replica <= len(addrs) && listen == "" {
			listen = addrs[replica-1]
		}
	} else if listen == "" {
		return "", fmt.Errorf("need -listen or -cluster")
	}
	if s := f.serverCount(); replica < 1 || replica > s {
		return "", fmt.Errorf("-replica %d out of range [1,%d]", replica, s)
	}
	return listen, nil
}
