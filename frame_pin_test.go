package fastreg

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"

	"fastreg/internal/mwabd"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/transport"
	"fastreg/internal/types"
	"fastreg/internal/w2r1"
)

// A reader keeps no part of the frames its replies came in, and a
// replica none of the requests'. Over loopback TCP, W2R1 reads (FastReads
// carrying the reader's valQueue, FastReadAck vectors and their updated
// sets) and W2R2 reads (QueryAcks and the write-back's Updates) run
// between writes, and every frame the client and the replicas decode is
// recorded by weak pointers into its block: its text, where the key is
// cut from, and every arena slot a message uses. Once the envelopes are
// dropped, all of them read nil after a GC, while what the reader keeps
// still holds the values written: its valQueue (W2R1), its key's
// recorded history and the strings Get returned.
func TestReaderKeepsNoFrame(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		p    register.Protocol
	}{
		{"W2R1", Config{Servers: 5, MaxCrashes: 1, Writers: 2, Readers: 2}, w2r1.New()},
		{"W2R2", Config{Servers: 3, MaxCrashes: 1, Writers: 2, Readers: 2}, mwabd.New()},
	} {
		t.Run(c.name, func(t *testing.T) {
			var frames frameBlocks
			kept := &keptReaders{Protocol: c.p}
			client, err := transport.NewClient(c.cfg.internal(), kept, frames.replicas(t, c.cfg, c.p), frames.dial)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			s := &Store{cfg: c.cfg, b: client}
			writers, readers := []*Writer{{store: s, id: 1}, {store: s, id: 2}}, []*Reader{{store: s, id: 1}, {store: s, id: 2}}
			ctx := context.Background()
			// Keys of 16 bytes and more keep every frame's text out of Go's
			// tiny allocator, which packs small strings together.
			keys := make([]string, 8)
			got := make([]string, len(keys))
			for i := range keys {
				keys[i] = fmt.Sprintf("reader-frame-key-%02d", i)
				for j, w := range writers {
					if _, err := w.Put(ctx, keys[i], pinValue(i, j)); err != nil {
						t.Fatal(err)
					}
					if got[i], _, _, err = readers[j].Get(ctx, keys[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			blocks := frames.settled()
			for range 3 {
				runtime.GC()
			}
			alive := 0
			for _, p := range blocks {
				if p.Value() != nil {
					alive++
				}
			}
			if alive > 0 {
				t.Errorf("%d of %d weak pointers into decoded frames' blocks are still alive", alive, len(blocks))
			}
			for i, key := range keys {
				want := pinValue(i, len(writers)-1)
				if got[i] != want {
					t.Errorf("Get of %s returned %.20q…, want %.20q…", key, got[i], want)
				}
				ops := client.History(key).Ops
				if last := ops[len(ops)-1]; last.Value.Data != want {
					t.Errorf("history of %s ends in %.20q…, want %.20q…", key, last.Value.Data, want)
				}
			}
			// Reader j+1 read key i right after writer j+1 wrote it, so its
			// valQueue for the key holds that value.
			for m, rd := range kept.made {
				queue, ok := rd.ReadOp().Begin().Payload.(proto.FastRead)
				if !ok {
					continue // a W2R2 reader keeps no valQueue
				}
				want := pinValue(m/len(writers), m%len(writers))
				if !slices.ContainsFunc(queue.ValQueue, func(v types.Value) bool { return v.Data == want }) {
					t.Errorf("valQueue of reader %d for %s lost %.20q…", m%len(writers)+1, keys[m/len(writers)], want)
				}
			}
		})
	}
}

// pinValue is the 256-byte-payload value writer j+1 writes to key i.
func pinValue(i, j int) string {
	return fmt.Sprintf("key-%02d-writer-%d-", i, j+1) + strings.Repeat("v", 256)
}

// keptReaders is a protocol that remembers every reader state machine it
// makes, one per key and reader in the order of their first reads.
type keptReaders struct {
	register.Protocol
	made []register.Reader
}

func (p *keptReaders) NewReader(id types.ProcID, cfg quorum.Config) register.Reader {
	r := p.Protocol.NewReader(id, cfg)
	p.made = append(p.made, r)
	return r
}

// frameBlocks dials and accepts TCP connections whose received envelopes
// it records by weak pointers into their frames' blocks: the bytes of
// each key, and each value, tag, valQueue, vector entry and updated set a
// message carries.
type frameBlocks struct {
	mu   sync.Mutex
	ptrs []weak.Pointer[byte]
}

func (f *frameBlocks) dial(addr string) (transport.Conn, error) {
	c, err := transport.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	return &blockConn{Conn: c, f: f}, nil
}

// replicas is tcpReplicas with every accepted connection recorded.
func (f *frameBlocks) replicas(t *testing.T, cfg Config, p register.Protocol) []string {
	t.Helper()
	addrs := make([]string, cfg.Servers)
	for i := range addrs {
		lis, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.NewServer(cfg.internal(), p, i+1, &blockListener{Listener: lis, f: f})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// settled waits until no frame has arrived for 100 ms, so the replies no
// quorum waited for are in too, and returns the recorded pointers.
func (f *frameBlocks) settled() []weak.Pointer[byte] {
	n := -1
	for {
		f.mu.Lock()
		ptrs := f.ptrs
		f.mu.Unlock()
		if len(ptrs) == n {
			return ptrs
		}
		n = len(ptrs)
		time.Sleep(100 * time.Millisecond)
	}
}

func (f *frameBlocks) add(envs []proto.Envelope) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range envs {
		if e.Key != "" {
			f.ptrs = append(f.ptrs, weak.Make(unsafe.StringData(e.Key)))
		}
		switch m := e.Payload.(type) {
		case proto.QueryAck:
			f.ptrs = append(f.ptrs, weakByte(m.Val))
		case proto.TagAck:
			f.ptrs = append(f.ptrs, weakByte(m.Tag))
		case proto.Update:
			f.ptrs = append(f.ptrs, weakByte(m.Val))
		case proto.FastRead:
			if len(m.ValQueue) > 0 {
				f.ptrs = append(f.ptrs, weakByte(&m.ValQueue[0]))
			}
		case proto.FastReadAck:
			for i := range m.Vector {
				f.ptrs = append(f.ptrs, weakByte(&m.Vector[i]))
				if len(m.Vector[i].Updated) > 0 {
					f.ptrs = append(f.ptrs, weakByte(&m.Vector[i].Updated[0]))
				}
			}
		}
	}
}

func weakByte[T any](p *T) weak.Pointer[byte] { return weak.Make((*byte)(unsafe.Pointer(p))) }

// blockListener accepts connections whose received envelopes its
// frameBlocks records.
type blockListener struct {
	transport.Listener
	f *frameBlocks
}

func (l *blockListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &blockConn{Conn: c, f: l.f}, nil
}

// blockConn is a connection whose received envelopes its frameBlocks
// records.
type blockConn struct {
	transport.Conn
	f *frameBlocks
}

func (c *blockConn) Recv() (proto.Envelope, error) {
	e, err := c.Conn.Recv()
	if err == nil {
		c.f.add([]proto.Envelope{e})
	}
	return e, err
}

func (c *blockConn) RecvBatch() ([]proto.Envelope, error) {
	envs, err := c.Conn.RecvBatch()
	c.f.add(envs)
	return envs, err
}
