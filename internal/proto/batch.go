package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Batch frame: many envelopes sharing one frame header.
//
// The stream transports frame each envelope individually; under concurrent
// load a quorum client has several rounds in flight to the same server at
// once, and a replica answers a drained batch with several replies to the
// same client. The batch frame lets all of them share one length prefix,
// one syscall-bound write and one decode buffer:
//
//	u32 body-length | 0xFF | u32 count | count × envelope-frame
//
// where each envelope-frame is exactly the output of Encode (its own u32
// length + body). The marker byte 0xFF occupies the position of a single
// frame's leading process role, which is always a valid types.Role
// (1..3) — so single and batch frames are unambiguous from the first body
// byte, and a decoder that predates batches rejects them instead of
// misparsing. A batch must hold at least one envelope; its count is
// bounded by MaxBatchEnvelopes and its body by MaxBatchFrame.
const (
	batchMarker = 0xFF

	// batchHeader is the marker byte plus the envelope count.
	batchHeader = 1 + 4

	// MaxBatchEnvelopes bounds the envelope count a single batch frame may
	// declare; larger counts are rejected before any allocation.
	MaxBatchEnvelopes = 4096

	// MaxBatchFrame bounds a batch frame's body, like MaxFrame bounds a
	// single envelope's.
	MaxBatchFrame = 8 << 20
)

// ErrEmptyBatch rejects batch frames declaring zero envelopes: an empty
// batch carries nothing and would give the format two encodings of
// "nothing on the wire".
var ErrEmptyBatch = errors.New("proto: empty batch frame")

// slicePool recycles slices without allocating. A sync.Pool stores
// pointers, and boxing &s on every put would allocate a new slice header
// each time, so the pool holds *[]T headers and a second pool parks the
// headers get has emptied for put to fill again.
type slicePool[T any] struct {
	full, spare sync.Pool
}

// get moves a pooled slice out of its header, or returns nil.
func (p *slicePool[T]) get() []T {
	h, _ := p.full.Get().(*[]T)
	if h == nil {
		return nil
	}
	s := (*h)[:0]
	*h = nil
	p.spare.Put(h)
	return s
}

func (p *slicePool[T]) put(s []T) {
	h, _ := p.spare.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s
	p.full.Put(h)
}

// bufPool recycles codec scratch buffers (frame assembly on the write
// side, frame reads on the read side). Decode copies every byte it keeps
// out of the buffer, so returning it after the decode pass is safe.
var bufPool slicePool[byte]

// GetBuf borrows a zero-length scratch buffer from the codec pool.
func GetBuf() []byte { return bufPool.get() }

// PutBuf returns a buffer obtained from GetBuf (or grown from one) to the
// pool. The caller must not use it afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > MaxBatchFrame+4 {
		return // nothing to recycle, or one oversized frame that must not pin memory in the pool
	}
	bufPool.put(b)
}

// envsPool recycles envelope slabs — the []Envelope a decoded frame lands
// in and the queues batched senders accumulate into. Decode never returns
// views into its read buffer (keys and every value-carrying payload are
// cut from the text of their own frame's block, and every value, tag and
// fast-read slice lives in that block's arenas), so a recycled slab can
// only ever reuse the backing ARRAY of envelope structs; it can never
// alias a previous frame's key or value bytes. PutEnvs still clears the
// slab so a pooled array doesn't pin dead payloads, or the frame blocks
// they point into, for the GC.
var envsPool slicePool[Envelope]

// maxPooledEnvs bounds the slab size the pool retains: a rare giant batch
// must not pin its memory forever.
const maxPooledEnvs = 2 * MaxBatchEnvelopes

// GetEnvs borrows a zero-length envelope slab from the codec pool.
func GetEnvs() []Envelope { return envsPool.get() }

// PutEnvs returns a slab obtained from GetEnvs (or grown from one, or any
// other []Envelope whose contents are dead) to the pool. The caller must
// not use the slice afterwards; every element is cleared before pooling.
func PutEnvs(envs []Envelope) {
	if cap(envs) == 0 || cap(envs) > maxPooledEnvs {
		return
	}
	clear(envs[:cap(envs)])
	envsPool.put(envs)
}

// AppendBatch appends one batch frame holding envs to dst and returns the
// extended slice. At least one envelope is required; the assembled body
// must fit MaxBatchFrame.
func AppendBatch(dst []byte, envs []Envelope) ([]byte, error) {
	if len(envs) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(envs) > MaxBatchEnvelopes {
		return nil, ErrOversize
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0) // length placeholder
	dst = append(dst, batchMarker)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(envs)))
	var err error
	for _, e := range envs {
		if dst, err = AppendEnvelope(dst, e); err != nil {
			return nil, err
		}
	}
	body := len(dst) - start - 4
	if body > MaxBatchFrame {
		return nil, ErrOversize
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(body))
	return dst, nil
}

// EncodeBatch serializes envs into one self-delimiting batch frame.
func EncodeBatch(envs []Envelope) ([]byte, error) { return AppendBatch(nil, envs) }

// DecodeBatch parses one batch frame produced by EncodeBatch, returning
// the envelopes and the number of bytes consumed. Frames that are not
// batches (including valid single-envelope frames) are rejected with
// ErrBadKind.
func DecodeBatch(buf []byte) ([]Envelope, int, error) {
	// Preallocate from the bytes actually present, not the declared count:
	// the smallest envelope frame is well over 8 bytes, so a frame lying
	// about its count can't amplify a few bytes into a huge allocation.
	prealloc := len(buf) / 8
	if prealloc > MaxBatchEnvelopes {
		prealloc = MaxBatchEnvelopes
	}
	return DecodeBatchInto(make([]Envelope, 0, prealloc), buf)
}

// DecodeBatchInto is DecodeBatch decoding into a caller-supplied slab:
// the frame's envelopes are appended to dst (typically a pooled GetEnvs
// slab), each decoded in place in its slot, and the extended slice is
// returned with the bytes consumed. On error dst's length is unchanged.
// Nothing decoded refers to buf: every envelope's Key and every
// value-carrying payload (a reply's, a FastRead's, an Update's) are
// copied into ONE text for the whole frame and cut from it, every
// QueryAck, Update and TagAck points into ONE value arena for the whole
// frame, every *FastRead points at a header in the frame's block, and
// every valQueue, vector and updated set is carved from the frame's
// arenas; the text and the arenas are ONE block, a single allocation
// (past the largest block class, one each), so a kept key, value,
// request or slice pins all of them (Decode says who copies). Recycling
// buf or the slab later can never alias this frame's data.
func DecodeBatchInto(dst []Envelope, buf []byte) ([]Envelope, int, error) {
	if len(buf) < 4 {
		return dst, 0, ErrTruncated
	}
	body := binary.BigEndian.Uint32(buf[:4])
	if body > MaxBatchFrame {
		return dst, 0, ErrOversize
	}
	total := 4 + int(body)
	if len(buf) < total {
		return dst, 0, ErrTruncated
	}
	b := buf[4:total]
	if len(b) < batchHeader {
		return dst, 0, ErrTruncated
	}
	if b[0] != batchMarker {
		return dst, 0, fmt.Errorf("%w: not a batch frame", ErrBadKind)
	}
	count := binary.BigEndian.Uint32(b[1:batchHeader])
	if count == 0 {
		return dst, 0, ErrEmptyBatch
	}
	if count > MaxBatchEnvelopes {
		return dst, 0, ErrOversize
	}
	start := len(dst)
	off := batchHeader
	fc := cutFrames(b[off:], int(count))
	// Grow by the envelopes the bytes can hold, not by the declared count.
	dst = slices.Grow(dst, min(int(count), (len(b)-off)/(4+minEnvelope)))
	for i := uint32(0); i < count; i++ {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1] // decode sets every field
		} else {
			dst = append(dst, Envelope{})
		}
		n, err := decode(&dst[len(dst)-1], b[off:], &fc)
		if err != nil {
			clear(dst[start:])
			return dst[:start], 0, err
		}
		off += n
	}
	if off != len(b) {
		clear(dst[start:])
		return dst[:start], 0, fmt.Errorf("proto: %d trailing bytes in batch frame", len(b)-off)
	}
	return dst, total, nil
}

// AppendDecode decodes one frame — single envelope or batch — from buf,
// appending its envelopes to dst and returning the extended slice plus
// the bytes consumed. It is the zero-alloc companion of Decode/DecodeBatch
// for callers holding a pooled slab. On error dst's length is unchanged.
func AppendDecode(dst []Envelope, buf []byte) ([]Envelope, int, error) {
	if len(buf) >= 4+batchHeader && buf[4] == batchMarker {
		return DecodeBatchInto(dst, buf)
	}
	dst = append(dst, Envelope{})
	fc := cutFrames(buf, 1)
	n, err := decode(&dst[len(dst)-1], buf, &fc)
	if err != nil {
		dst[len(dst)-1] = Envelope{}
		return dst[:len(dst)-1], 0, err
	}
	return dst, n, nil
}

// WriteBatch encodes envs as one batch frame and writes it to w, reusing a
// pooled assembly buffer.
func WriteBatch(w io.Writer, envs []Envelope) error {
	buf, err := AppendBatch(GetBuf(), envs)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	PutBuf(buf)
	return err
}

// ReadFrames reads exactly one frame — single envelope or batch — from r
// and returns its envelopes (len ≥ 1 on success). The read buffer comes
// from the codec pool and is returned before ReadFrames does; the
// returned envelope slice is freshly allocated. Receive loops that drain
// frames continuously should prefer ReadFramesInto with a pooled slab.
func ReadFrames(r io.Reader) ([]Envelope, error) {
	return ReadFramesInto(r, nil)
}

// ReadFramesInto is ReadFrames decoding into a caller-supplied slab: the
// frame's envelopes are appended to dst (typically a pooled GetEnvs slab)
// and the extended slice is returned. Both the read buffer and — with a
// pooled dst — the envelope storage are recycled, so a steady stream
// allocates only the frame's one block (its text, which its keys and
// values' Data are cut from, and its arenas, which hold its values, tags,
// FastRead headers, valQueues, vectors and updated sets) and what the
// payloads own (the boxes of FastReadAck and LogAck payloads and a log's
// events). On error dst's length is unchanged.
func ReadFramesInto(r io.Reader, dst []Envelope) ([]Envelope, error) {
	// The header is read into the pooled buffer too: a local array handed
	// to an io.Reader would escape, one allocation per frame.
	buf := append(GetBuf(), 0, 0, 0, 0)
	defer func() { PutBuf(buf) }() // buf may be regrown below
	if _, err := io.ReadFull(r, buf); err != nil {
		return dst, err
	}
	body := binary.BigEndian.Uint32(buf)
	if body > MaxBatchFrame {
		return dst, ErrOversize
	}
	buf = slices.Grow(buf, int(body))[:4+int(body)]
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return dst, err
	}
	out, _, err := AppendDecode(dst, buf) // a single frame's decode enforces MaxFrame
	return out, err
}
