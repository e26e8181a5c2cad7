package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// schedule is everything the store receives in one pass, generated up
// front from the seed: the store sees only these inputs.
type schedule struct {
	keys   []string
	values []string // pool the writes cycle through; tags, not data, tell writes apart

	// Open loop: op i is released offset[i] ns into the pass.
	offset []int64
	write  []bool
	key    []uint32
	val    []uint32

	// Closed loop: identity c (writers first) walks seq[c] cyclically.
	seq [][]uint32
}

const (
	valuePool = 1024    // distinct write values per schedule
	closedSeq = 1 << 12 // keys per identity before the walk repeats
)

// buildSchedule derives one pass's inputs from (workload family, seed,
// stream, duration). stream separates the warm-up from the measured
// window so the window's inputs do not depend on the warm-up's length.
func buildSchedule(w workload, seed int64, stream string, dur time.Duration) *schedule {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", w.family, stream, seed)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	s := &schedule{keys: make([]string, w.keys), values: make([]string, valuePool)}
	for i := range s.keys {
		s.keys[i] = fmt.Sprintf("k%05d", i)
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	buf := make([]byte, w.valueBytes)
	for i := range s.values {
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		s.values[i] = string(buf)
	}
	var zipf *rand.Zipf
	if w.zipfS > 0 {
		zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.keys-1))
	}
	nextKey := func() uint32 {
		if zipf != nil {
			return uint32(zipf.Uint64())
		}
		return uint32(rng.Intn(w.keys))
	}

	if !w.open {
		s.seq = make([][]uint32, w.cfg.Writers+w.cfg.Readers)
		for c := range s.seq {
			s.seq[c] = make([]uint32, closedSeq)
			for i := range s.seq[c] {
				s.seq[c][i] = nextKey()
			}
		}
		return s
	}
	n := int(w.rate * dur.Seconds() * 1.1)
	s.offset = make([]int64, 0, n)
	s.write = make([]bool, 0, n)
	s.key = make([]uint32, 0, n)
	s.val = make([]uint32, 0, n)
	for t := 0.0; ; {
		t += rng.ExpFloat64() / w.rate * 1e9
		if t >= float64(dur) {
			break
		}
		s.offset = append(s.offset, int64(t))
		s.write = append(s.write, rng.Float64() >= w.readFrac)
		s.key = append(s.key, nextKey())
		s.val = append(s.val, uint32(rng.Intn(valuePool)))
	}
	return s
}

// hash fingerprints the whole schedule; equal hashes mean the store
// receives byte-identical inputs.
func (s *schedule) hash() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, set := range [][]string{s.keys, s.values} {
		put(uint64(len(set)))
		for _, v := range set {
			put(uint64(len(v)))
			h.Write([]byte(v))
		}
	}
	put(uint64(len(s.offset)))
	for i := range s.offset {
		put(uint64(s.offset[i]))
		if s.write[i] {
			put(1)
		} else {
			put(0)
		}
		put(uint64(s.key[i])<<32 | uint64(s.val[i]))
	}
	put(uint64(len(s.seq)))
	for _, seq := range s.seq {
		put(uint64(len(seq)))
		for _, k := range seq {
			put(uint64(k))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// client is what the generator drives: identity-bound puts and gets. The
// store's session handles implement it for the workloads, bare backends
// for the ladder rungs.
type client interface {
	put(ctx context.Context, writer int, key, value string) error
	get(ctx context.Context, reader int, key string) error
}

// opRec is one completed operation as its identity's goroutine saw it.
// start is the instant the scheduler released the op (ns on the process
// clock), not the instant it was due — see bench/README.md; call is when
// its identity picked it up and called Put/Get (equal to start in a
// closed loop); lat runs from start to the call's return.
type opRec struct {
	start int64
	call  int64
	lat   int64
	key   uint32
	write bool
}

// passResult is what one pass through the generator leaves behind.
type passResult struct {
	ops        [][]opRec // per identity, writers first
	late       []int64   // open loop: release instant minus due instant, ns
	backlogMax int
	scheduled  int
	completed  int
	failed     int
	elapsed    time.Duration

	// Open loop: the instant each arrival was released, and the two
	// identity pools' queues.
	released      []int64
	writeQ, readQ chan int32
}

// newPassResult allocates everything a pass records into, before the
// pass: the window's heap growth and allocation count are then the
// store's, not the generator's.
func newPassResult(w workload, s *schedule, dur time.Duration) *passResult {
	ids := w.cfg.Writers + w.cfg.Readers
	res := &passResult{ops: make([][]opRec, ids)}
	if !w.open {
		// Room for 12k ops/s per identity, twice what the in-process
		// backend reaches here; beyond it append grows the slice.
		for id := range res.ops {
			res.ops[id] = make([]opRec, 0, int(dur.Seconds()*12000)+1024)
		}
		return res
	}
	n := len(s.offset)
	res.scheduled = n
	res.late = make([]int64, n)
	res.released = make([]int64, n)
	// Each pool's queue holds the whole schedule, so the scheduler can
	// never block on it and nothing is shed.
	res.writeQ, res.readQ = make(chan int32, n), make(chan int32, n)
	for id := range res.ops {
		share := w.cfg.Readers
		if id < w.cfg.Writers {
			share = w.cfg.Writers
		}
		res.ops[id] = make([]opRec, 0, n/share+1024)
	}
	return res
}

func (p *passResult) latencies(write bool) []int64 {
	var out []int64
	for _, recs := range p.ops {
		for _, r := range recs {
			if r.write == write {
				out = append(out, r.lat)
			}
		}
	}
	slices.Sort(out)
	return out
}

// releaseTick is the period on which the open loop releases arrivals.
const releaseTick = time.Millisecond

// drainGrace is how long after its last arrival an open-loop pass waits
// for queued operations; what is still queued then counts as failed.
const drainGrace = 500 * time.Millisecond

var processStart = time.Now()

// nowNs is the process-wide monotonic clock every span is stamped on.
func nowNs() int64 { return int64(time.Since(processStart)) }

// drive runs one pass of the schedule against c and returns what
// happened. One goroutine per identity; in the open loop one more, the
// scheduler, which only releases operations and never waits for the store.
func drive(c client, w workload, s *schedule, dur time.Duration, res *passResult) {
	ctx, cancel := context.WithTimeout(context.Background(), dur+drainGrace+2*time.Second)
	defer cancel()
	if w.open {
		driveOpen(ctx, c, w, s, dur, res)
	} else {
		driveClosed(ctx, c, w, s, dur, res)
	}
}

func driveClosed(ctx context.Context, c client, w workload, s *schedule, dur time.Duration, res *passResult) {
	ids := w.cfg.Writers + w.cfg.Readers
	failed := make([]int, ids)
	var wg sync.WaitGroup
	begin := nowNs()
	end := begin + int64(dur)
	for id := 0; id < ids; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := s.seq[id]
			isWrite := id < w.cfg.Writers
			for i := 0; ; i++ {
				t0 := nowNs()
				if t0 >= end {
					return
				}
				k := seq[i%len(seq)]
				var err error
				if isWrite {
					err = c.put(ctx, id+1, s.keys[k], s.values[(id*131+i)%len(s.values)])
				} else {
					err = c.get(ctx, id-w.cfg.Writers+1, s.keys[k])
				}
				if err != nil {
					failed[id]++
					continue
				}
				res.ops[id] = append(res.ops[id], opRec{start: t0, call: t0, lat: nowNs() - t0, key: k, write: isWrite})
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Duration(nowNs() - begin)
	for id := range res.ops {
		res.completed += len(res.ops[id])
		res.failed += failed[id]
	}
	res.scheduled = res.completed + res.failed
}

func driveOpen(ctx context.Context, c client, w workload, s *schedule, dur time.Duration, res *passResult) {
	ids := w.cfg.Writers + w.cfg.Readers
	n := len(s.offset)
	released, writeQ, readQ := res.released, res.writeQ, res.readQ
	failed := make([]int, ids)
	var wg sync.WaitGroup
	begin := nowNs()
	deadline := begin + int64(dur+drainGrace)
	for id := 0; id < ids; id++ {
		isWrite := id < w.cfg.Writers
		q := readQ
		if isWrite {
			q = writeQ
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range q {
				call := nowNs()
				if call > deadline {
					failed[id]++
					continue
				}
				k := s.key[i]
				var err error
				if isWrite {
					err = c.put(ctx, id+1, s.keys[k], s.values[s.val[i]])
				} else {
					err = c.get(ctx, id-w.cfg.Writers+1, s.keys[k])
				}
				if err != nil {
					failed[id]++
					continue
				}
				t0 := released[i]
				res.ops[id] = append(res.ops[id], opRec{start: t0, call: call, lat: nowNs() - t0, key: k, write: isWrite})
			}
		}()
	}
	// Arrivals are released on a fixed tick, as a front end's event loop
	// or a NIC's interrupt coalescing hands a server its requests. A tick
	// keeps the arrival process the same on every commit. Releasing each
	// arrival at its own instant does not: a Go timer is noticed when a P
	// next looks, so how arrivals clump would depend on how busy the store
	// keeps the Ps, and on a small VM every lone arrival pays an idle
	// vCPU's wake-up, which tripled run-to-run spread. (Sleeping in
	// nanosleep(2) on a locked thread is more punctual but strands the
	// released goroutines on that thread's P: p50 rose by half.)
	for i := 0; i < n; {
		now := nowNs() - begin
		due := (s.offset[i] + int64(releaseTick) - 1) / int64(releaseTick) * int64(releaseTick)
		if wait := due - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			now = nowNs() - begin
		}
		for ; i < n && s.offset[i] <= now; i++ {
			res.late[i] = now - s.offset[i]
			released[i] = begin + now
			if s.write[i] {
				writeQ <- int32(i)
			} else {
				readQ <- int32(i)
			}
		}
		if b := len(writeQ) + len(readQ); b > res.backlogMax {
			res.backlogMax = b
		}
	}
	close(writeQ)
	close(readQ)
	wg.Wait()
	res.elapsed = time.Duration(nowNs() - begin)
	if res.elapsed > dur {
		// Throughput is over the arrival window; the drain after the last
		// arrival completes work that arrived inside it.
		res.elapsed = dur
	}
	for id := range res.ops {
		res.completed += len(res.ops[id])
		res.failed += failed[id]
	}
	slices.Sort(res.late)
}
