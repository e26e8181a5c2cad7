package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastreg/internal/atomicity"
	"fastreg/internal/mwabd"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/w2r1"
)

// connHooks intercept one client link's batches: send sees each outgoing
// batch and may drop it (false); recv maps each incoming reply to the
// replies the client gets instead. A nil hook passes everything.
type connHooks struct {
	send func(envs []proto.Envelope) bool
	recv func(env proto.Envelope) []proto.Envelope
}

// hookConn is a client-side Conn running its batches through hooks.
type hookConn struct {
	Conn
	connHooks
}

func (c *hookConn) SendBatch(envs []proto.Envelope) error {
	if c.send != nil && !c.send(envs) {
		proto.PutEnvs(envs)
		return nil
	}
	return c.Conn.SendBatch(envs)
}

func (c *hookConn) RecvBatch() ([]proto.Envelope, error) {
	envs, err := c.Conn.RecvBatch()
	if err != nil || c.recv == nil {
		return envs, err
	}
	out := proto.GetEnvs()
	for _, env := range envs {
		out = append(out, c.recv(env)...)
	}
	proto.PutEnvs(envs)
	return out, nil
}

// hookedClient starts cfg.S in-process replicas running p and a client
// whose link to replica s_i runs through hooks(i), made once per replica
// so that state the hooks keep outlives a redial. hooks may be nil.
func hookedClient(t *testing.T, cfg quorum.Config, p register.Protocol, hooks func(srv int) connHooks, opts ...ClientOption) *Client {
	t.Helper()
	net := NewChanNetwork()
	addrs := make([]string, cfg.S)
	byAddr := make(map[string]connHooks, cfg.S)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("s%d", i+1)
		lis, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(cfg, p, i+1, lis)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		if hooks != nil {
			byAddr[addrs[i]] = hooks(i + 1)
		}
	}
	dial := func(addr string) (Conn, error) {
		conn, err := net.Dial(addr)
		if err != nil {
			return nil, err
		}
		return &hookConn{Conn: conn, connHooks: byAddr[addr]}, nil
	}
	c, err := NewClient(cfg, p, addrs, dial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// nextRecorder wraps a protocol so that every reply set its writes'
// Next receives is kept for inspection.
type nextRecorder struct {
	register.Protocol
	mu    sync.Mutex
	calls [][]register.Reply
}

type recWriter struct {
	register.Writer
	p *nextRecorder
}

type recOp struct {
	register.Operation
	p *nextRecorder
}

func (p *nextRecorder) NewWriter(id types.ProcID, cfg quorum.Config) register.Writer {
	return recWriter{p.Protocol.NewWriter(id, cfg), p}
}

func (w recWriter) WriteOp(data string) register.Operation {
	return recOp{w.Writer.WriteOp(data), w.p}
}

func (o recOp) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	o.p.mu.Lock()
	o.p.calls = append(o.p.calls, slices.Clone(replies))
	o.p.mu.Unlock()
	return o.Operation.Next(replies)
}

// TestRoundEngineCollector pins what the reply collector lets through to
// Next, one W2R2 write (a Query round, then an Update round) per case
// against S=3, t=1. A case whose tampered replies must not make a quorum
// expects the write to time out, not fail on a bad reply.
func TestRoundEngineCollector(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	pass := func(env proto.Envelope) []proto.Envelope { return []proto.Envelope{env} }
	drop := func(proto.Envelope) []proto.Envelope { return nil }
	cases := []struct {
		name     string
		recv     func(srv int) func(proto.Envelope) []proto.Envelope
		wantErr  error // nil: the write completes
		wantNext int
	}{
		{
			name: "duplicate replies count once",
			recv: func(srv int) func(proto.Envelope) []proto.Envelope {
				if srv == 1 {
					return func(env proto.Envelope) []proto.Envelope { return []proto.Envelope{env, env, env} }
				}
				return drop
			},
			wantErr: register.ErrTimeout,
		},
		{
			// s3 holds its round-1 reply back and delivers it in place of
			// its round-2 reply; s2 answers round 1 only.
			name: "round-1 straggler arriving in round 2 never counts",
			recv: func(srv int) func(proto.Envelope) []proto.Envelope {
				switch srv {
				case 2:
					return func(env proto.Envelope) []proto.Envelope {
						if env.Round == 1 {
							return []proto.Envelope{env}
						}
						return nil
					}
				case 3:
					var held []proto.Envelope
					return func(env proto.Envelope) []proto.Envelope {
						if env.Round == 1 {
							held = append(held, env)
							return nil
						}
						return held
					}
				}
				return pass
			},
			wantErr:  register.ErrTimeout,
			wantNext: 1,
		},
		{
			name:     "replies past Need never reach Next",
			recv:     func(int) func(proto.Envelope) []proto.Envelope { return pass },
			wantNext: 2,
		},
		{
			// s1 delivers its own round-2 reply with s2's and s3's in one
			// batch; the receive loop dispatches the third right after the
			// second finished the write, before the write's goroutine can
			// remove its entry.
			name: "replies after the op finished never count",
			recv: func(srv int) func(proto.Envelope) []proto.Envelope {
				return func(env proto.Envelope) []proto.Envelope {
					switch {
					case env.Round == 1:
						return []proto.Envelope{env}
					case srv != 1:
						return nil
					}
					out := []proto.Envelope{env, env, env}
					out[1].From, out[2].From = types.Server(2), types.Server(3)
					return out
				}
			},
			wantNext: 2,
		},
		{
			name: "replies from unknown server indices are dropped",
			recv: func(srv int) func(proto.Envelope) []proto.Envelope {
				forged := map[int]types.ProcID{2: types.Server(cfg.S + 1), 3: types.Server(0)}
				if f, ok := forged[srv]; ok {
					return func(env proto.Envelope) []proto.Envelope {
						env.From = f
						return []proto.Envelope{env}
					}
				}
				return pass
			},
			wantErr: register.ErrTimeout,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &nextRecorder{Protocol: mwabd.New()}
			c := hookedClient(t, cfg, p, func(srv int) connHooks { return connHooks{recv: tc.recv(srv)} })
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			_, err := c.Write(ctx, "k", 1, "v")
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("write failed: %v", err)
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("write returned %v, want %v", err, tc.wantErr)
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			if len(p.calls) != tc.wantNext {
				t.Fatalf("Next called %d times, want %d", len(p.calls), tc.wantNext)
			}
			need := cfg.ReplyQuorum()
			for i, replies := range p.calls {
				seen := make(map[types.ProcID]bool)
				for _, r := range replies {
					if r.From.Role != types.RoleServer || r.From.Index < 1 || r.From.Index > cfg.S || seen[r.From] {
						t.Fatalf("Next call %d: reply from %v (replies %v)", i+1, r.From, replies)
					}
					seen[r.From] = true
				}
				if len(replies) != need {
					t.Fatalf("Next call %d got %d replies, want exactly %d", i+1, len(replies), need)
				}
			}
		})
	}
}

// TestRoundEngineStress runs concurrent writers and readers on shared
// keys while one server is crashed client-side, then a second (leaving no
// quorum), and then the client closes — each landing mid-round. Every
// operation must return promptly: with a result, or with ErrProtocol or
// ErrClosed, which end its identity's loop. The recorded histories must
// stay well-formed and atomic. (Ending each loop at its first failure
// keeps the failed writes, which the checker must treat as optional,
// few.)
func TestRoundEngineStress(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 4, W: 4}
	c := hookedClient(t, cfg, mwabd.New(), nil)
	keys := []string{"a", "b", "c"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.W+cfg.R)
	run := func(id int, op func(key string, i int) error) {
		defer wg.Done()
		for i := 0; ; i++ {
			err := op(keys[(id+i)%len(keys)], i)
			switch {
			case err == nil:
				continue
			case !errors.Is(err, register.ErrProtocol) && !errors.Is(err, ErrClosed):
				errs <- err
			}
			return
		}
	}
	for w := 1; w <= cfg.W; w++ {
		wg.Add(1)
		go run(w, func(key string, i int) error {
			_, err := c.Write(ctx, key, w, fmt.Sprintf("w%d-%d", w, i))
			return err
		})
	}
	for r := 1; r <= cfg.R; r++ {
		wg.Add(1)
		go run(r, func(key string, _ int) error {
			_, err := c.Read(ctx, key, r)
			return err
		})
	}
	time.Sleep(20 * time.Millisecond)
	c.Crash(1)
	time.Sleep(20 * time.Millisecond)
	c.Crash(2)
	time.Sleep(5 * time.Millisecond)
	c.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, key := range c.Keys() {
		h := c.History(key)
		if err := h.WellFormed(); err != nil {
			t.Fatalf("key %s: malformed history: %v", key, err)
		}
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("key %s: atomicity violated: %s", key, res)
		}
	}
}

// TestRoundEngineResend drops every send to every replica for the
// initial attempt and the first k resends: the resender must get the
// (k+1)-th resend out in time for the write to finish within
// (k+2)·resendInterval. A busy machine only ever adds time, so the test
// takes the best of three attempts.
func TestRoundEngineResend(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	for k := 0; k <= 3; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			limit := time.Duration(k+2) * resendInterval
			best := time.Duration(1<<63 - 1)
			for attempt := 0; attempt < 3 && best > limit; attempt++ {
				best = min(best, timeDroppedWrite(t, cfg, k))
			}
			if best > limit {
				t.Fatalf("write took %v with %d resends dropped, want ≤ %v", best, k, limit)
			}
		})
	}
}

// timeDroppedWrite times one write on a fresh fleet whose links drop the
// first k+1 batches each.
func timeDroppedWrite(t *testing.T, cfg quorum.Config, k int) time.Duration {
	c := hookedClient(t, cfg, mwabd.New(), func(int) connHooks {
		dropped := 0
		return connHooks{send: func([]proto.Envelope) bool {
			if dropped <= k {
				dropped++
				return false
			}
			return true
		}}
	})
	// Dial first, so no attempt is lost to a link still connecting.
	if n := c.Connect(); n != cfg.S {
		t.Fatalf("Connect() = %d", n)
	}
	start := time.Now()
	if _, err := c.Write(context.Background(), "k", 1, "v"); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestRoundEngineExpiredCtx: an operation whose ctx has already expired
// never completes, even on a fleet that would answer at once.
func TestRoundEngineExpiredCtx(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	c := hookedClient(t, cfg, mwabd.New(), nil)
	if _, err := c.Write(context.Background(), "k", 1, "v0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		if _, err := c.Write(ctx, "k", 1, fmt.Sprintf("v%d", i+1)); !errors.Is(err, register.ErrTimeout) {
			t.Fatalf("write %d with an expired ctx returned %v, want ErrTimeout", i, err)
		}
		if _, err := c.Read(ctx, "k", 1); !errors.Is(err, register.ErrTimeout) {
			t.Fatalf("read %d with an expired ctx returned %v, want ErrTimeout", i, err)
		}
	}
	if n := len(c.History("k").Completed()); n != 1 {
		t.Fatalf("%d completed ops, want only the first write", n)
	}
}

// TestRoundEngineCloseStopsResender: the resender and the eviction
// sweeper exit when Close returns. Close waits for their deferred
// wg.Done, after which a goroutine can still show in runtime.Stack for a
// moment before it is gone, so the counts are polled until they are back
// at the baseline, for at most 2 s. The same holds for the clients that
// earlier tests closed (no test here runs in parallel), so the baseline
// is taken once theirs are gone, within the same 2 s.
func TestRoundEngineCloseStopsResender(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	count := func() (resenders, sweepers int) {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, "(*Client).resender("), strings.Count(stacks, "(*Client).sweeper(")
	}
	r0, s0 := count()
	for deadline := time.Now().Add(2 * time.Second); (r0 != 0 || s0 != 0) && time.Now().Before(deadline); r0, s0 = count() {
		time.Sleep(time.Millisecond)
	}
	c := hookedClient(t, cfg, mwabd.New(), nil, WithClientEviction(time.Hour))
	if _, err := c.Write(context.Background(), "k", 1, "v"); err != nil {
		t.Fatal(err)
	}
	if r, s := count(); r != r0+1 || s != s0+1 {
		t.Fatalf("running client: %d resenders, %d sweepers; want %d, %d", r, s, r0+1, s0+1)
	}
	c.Close()
	r, s := count()
	for deadline := time.Now().Add(2 * time.Second); (r != r0 || s != s0) && time.Now().Before(deadline); r, s = count() {
		time.Sleep(time.Millisecond)
	}
	if r != r0 || s != s0 {
		t.Fatalf("after Close: %d resenders, %d sweepers; want %d, %d", r, s, r0, s0)
	}
}

// TestSharedValuesStayFrozen checks the rule that lets QueryAck, TagAck
// and Update carry their value (or tag) by pointer: nobody writes through
// it. Over channels the pointer a client sends or receives is the op's own
// value or the replica's current value (or its tag) itself, so the hooks
// record each one with a copy of what it held then; after concurrent
// writers and readers on shared keys, every pointer must still hold its
// copy (and under -race, a write through one while a hook reads it is a
// reported race).
func TestSharedValuesStayFrozen(t *testing.T) {
	for _, p := range []register.Protocol{mwabd.New(), w2r1.New()} {
		t.Run(p.Name(), func(t *testing.T) {
			cfg := quorum.Config{S: 3, T: 1, R: 3, W: 3}
			type seen struct {
				ptr *types.Value
				val types.Value
			}
			type seenTag struct {
				ptr *types.Tag
				tag types.Tag
			}
			var (
				mu                       sync.Mutex
				log                      []seen
				tags                     []seenTag
				queryAcks, tagAcks, upds int
			)
			record := func(m proto.Message) {
				var v *types.Value
				switch m := m.(type) {
				case proto.QueryAck:
					v = m.Val
					queryAcks++
				case proto.TagAck:
					tags = append(tags, seenTag{m.Tag, *m.Tag})
					tagAcks++
					return
				case proto.Update:
					v = m.Val
					upds++
				default:
					return
				}
				log = append(log, seen{v, *v})
			}
			c := hookedClient(t, cfg, p, func(int) connHooks {
				return connHooks{
					send: func(envs []proto.Envelope) bool {
						mu.Lock()
						defer mu.Unlock()
						for i := range envs {
							record(envs[i].Payload)
						}
						return true
					},
					recv: func(env proto.Envelope) []proto.Envelope {
						mu.Lock()
						defer mu.Unlock()
						record(env.Payload)
						return []proto.Envelope{env}
					},
				}
			})
			keys := []string{"a", "b"}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			const opsEach = 150
			var wg sync.WaitGroup
			errs := make(chan error, cfg.W+cfg.R)
			for w := 1; w <= cfg.W; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range opsEach {
						if _, err := c.Write(ctx, keys[(w+i)%len(keys)], w, fmt.Sprintf("w%d-%d", w, i)); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			for r := 1; r <= cfg.R; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range opsEach {
						if _, err := c.Read(ctx, keys[(r+i)%len(keys)], r); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			c.Close()
			mu.Lock()
			defer mu.Unlock()
			// Writes query with TagQuery; only W2R2's reads send Query.
			wantQueryAcks := 0
			if p.ReadRounds() == 2 {
				wantQueryAcks = cfg.R * opsEach
			}
			if tagAcks < cfg.W*opsEach || upds < cfg.W*opsEach || queryAcks < wantQueryAcks {
				t.Fatalf("saw %d TagAcks, %d Updates and %d QueryAcks, want at least %d, %d and %d",
					tagAcks, upds, queryAcks, cfg.W*opsEach, cfg.W*opsEach, wantQueryAcks)
			}
			for i, s := range log {
				if *s.ptr != s.val {
					t.Fatalf("message %d: its value changed from %v to %v after it was sent", i, s.val, *s.ptr)
				}
			}
			for i, s := range tags {
				if *s.ptr != s.tag {
					t.Fatalf("TagAck %d: its tag changed from %v to %v after it was sent", i, s.tag, *s.ptr)
				}
			}
		})
	}
}

// TestRoundEngineOneWake: the reply that completes a round starts the
// next one on the goroutine that received it, so an operation's own
// goroutine is woken exactly once, however many rounds it takes. An op
// that finishes within resendInterval was never marked by the resender
// (a round first falls due after more than resendInterval), so each such
// op must cost exactly one ready token; slower ones are not counted.
func TestRoundEngineOneWake(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	for _, p := range []register.Protocol{mwabd.New(), w2r1.New()} {
		c := hookedClient(t, cfg, p, nil)
		if n := c.Connect(); n != cfg.S {
			t.Fatalf("Connect() = %d", n)
		}
		ops := []struct {
			kind string
			run  func(i int) error
		}{
			{"write", func(i int) error { _, err := c.Write(context.Background(), "k", 1, fmt.Sprint("v", i)); return err }},
			{"read", func(int) error { _, err := c.Read(context.Background(), "k", 1); return err }},
		}
		for _, op := range ops {
			counted := 0
			for i := 0; i < 50; i++ {
				before, start := c.ReadyTokens(), time.Now()
				if err := op.run(i); err != nil {
					t.Fatal(err)
				}
				if time.Since(start) >= resendInterval {
					continue
				}
				counted++
				if got := c.ReadyTokens() - before; got != 1 {
					t.Fatalf("%s %s #%d woke its goroutine %d times, want 1", p.Name(), op.kind, i, got)
				}
			}
			if counted == 0 {
				t.Fatalf("%s %s: no op finished within %v", p.Name(), op.kind, resendInterval)
			}
		}
	}
}

// TestRoundEngineTurnoverRace runs W2R2 ops whose deadlines sit near their
// round latency against a fleet where s3 answers only after
// resendInterval and s2's replies are lost one time in three. A round that
// needs s3 then completes on a reply that races the op's ctx expiry and
// the resender's re-send. Every op must return a value or ErrTimeout,
// the recycled scratch a background checker keeps taking out of the pool
// must never receive a late token or reply, and every key's history
// must check atomic. The checker reads as a reader of its own and then
// takes the scratch its read just recycled, which sits in its P's slot of
// the pool (a Get steals from other Ps' shared queues only, and the race
// detector drops a quarter of Puts), until it has checked one.
func TestRoundEngineTurnoverRace(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 3, W: 2}
	const checker = 3 // the reader the checker reads as; the others run the load
	c := hookedClient(t, cfg, mwabd.New(), func(srv int) connHooks {
		switch srv {
		case 2:
			n := 0
			return connHooks{recv: func(env proto.Envelope) []proto.Envelope {
				if n++; n%3 == 0 {
					return nil
				}
				return []proto.Envelope{env}
			}}
		case 3:
			// Holding each outgoing batch back keeps s3's answers late
			// without a backlog: the flusher ships what queued meanwhile
			// as the next batch.
			return connHooks{send: func([]proto.Envelope) bool {
				time.Sleep(resendInterval + 5*time.Millisecond)
				return true
			}}
		}
		return connHooks{}
	})
	if n := c.Connect(); n != cfg.S {
		t.Fatalf("Connect() = %d", n)
	}
	keys := []string{"a", "b"}
	stop := make(chan struct{})
	checkerDone := make(chan error, 1)
	go func() {
		defer close(checkerDone)
		checked := 0
		stopped, giveUp := stop, (<-chan time.Time)(nil) // giveUp is armed once the load has stopped
		for i := 0; ; i++ {
			select {
			case <-stopped:
				stopped, giveUp = nil, time.After(5*time.Second)
			case <-giveUp:
				checkerDone <- errors.New("the checker never found a recycled scratch")
				return
			default:
			}
			if stopped == nil && checked > 0 {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, err := c.Read(ctx, keys[i%len(keys)], checker)
			cancel()
			if err != nil && !errors.Is(err, register.ErrTimeout) {
				checkerDone <- fmt.Errorf("checker's read: %w", err)
				return
			}
			ok, err := c.checkRecycled(resendInterval)
			if err != nil {
				checkerDone <- err
				return
			}
			if ok {
				checked++
			}
		}
	}()
	var wg sync.WaitGroup
	var values, timeouts atomic.Int64
	errs := make(chan error, cfg.W+cfg.R)
	run := func(id int, op func(ctx context.Context, key string, i int) error) {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			// Deadlines from under one round trip to past a delayed one.
			d := time.Duration(5+(id*7+i*11)%30) * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), d)
			err := op(ctx, keys[(id+i)%len(keys)], i)
			cancel()
			switch {
			case err == nil:
				values.Add(1)
			case errors.Is(err, register.ErrTimeout):
				timeouts.Add(1)
			default:
				errs <- err
				return
			}
		}
	}
	for w := 1; w <= cfg.W; w++ {
		wg.Add(1)
		go run(w, func(ctx context.Context, key string, i int) error {
			_, err := c.Write(ctx, key, w, fmt.Sprintf("w%d-%d", w, i))
			return err
		})
	}
	for r := 1; r < checker; r++ {
		wg.Add(1)
		go run(cfg.W+r, func(ctx context.Context, key string, _ int) error {
			_, err := c.Read(ctx, key, r)
			return err
		})
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatalf("op returned %v, want a value or ErrTimeout", err)
	}
	// Both outcomes must occur, or the deadlines missed the race window.
	if values.Load() == 0 || timeouts.Load() == 0 {
		t.Fatalf("%d ops returned a value and %d timed out; want some of each", values.Load(), timeouts.Load())
	}
	if err := <-checkerDone; err != nil {
		t.Fatal(err)
	}
	for _, key := range c.Keys() {
		h := c.History(key)
		if err := h.WellFormed(); err != nil {
			t.Fatalf("key %s: malformed history: %v", key, err)
		}
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("key %s: atomicity violated: %s", key, res)
		}
	}
}
