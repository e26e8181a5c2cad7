package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync/atomic"
	"unsafe"

	"fastreg/internal/types"
)

// Envelope frames a payload with addressing and correlation metadata. The
// in-process simulator passes envelopes directly; the codec below serializes
// them for byte-stream transports.
//
// Key routes the payload to one register inside a multiplexed server
// (transport.Server): a single server fleet hosts every key's protocol
// state, and the envelope's key selects which one handles the message. The
// empty key addresses the sole register of a single-register cluster, so
// the per-register runtimes need no special casing.
type Envelope struct {
	From    types.ProcID
	To      types.ProcID
	Key     string // register name in a multiplexed cluster; "" for single-register
	OpID    uint64 // client-local operation sequence number
	Round   uint8  // round-trip index within the operation (1 or 2)
	IsReply bool
	// Epoch and Weight carry the continuous-audit cutover state (Huang's
	// weight-throwing termination detection, internal/epoch). The client
	// stamps requests with the epoch its op borrowed from and the dyadic
	// weight atoms it attached; the server echoes both on the reply so
	// weight travels with the message it covers. Zero on both fields means
	// no coordinator is attached — the fields cost 16 bytes per frame and
	// nothing else.
	Epoch   uint64
	Weight  uint64
	Payload Message
}

// String renders the envelope for traces.
func (e Envelope) String() string {
	dir := "→"
	if e.IsReply {
		dir = "⇠"
	}
	key := ""
	if e.Key != "" {
		key = "[" + e.Key + "]"
	}
	return fmt.Sprintf("%s%s%s%s op%d.%d %s", e.From, dir, e.To, key, e.OpID, e.Round, e.Payload)
}

// Codec errors.
var (
	ErrTruncated   = errors.New("proto: truncated message")
	ErrBadKind     = errors.New("proto: unknown message kind")
	ErrOversize    = errors.New("proto: frame exceeds limit")
	errBadProcRole = errors.New("proto: invalid process role on wire")
	errBadFlag     = errors.New("proto: invalid boolean flag on wire")
)

// MaxFrame bounds a single encoded envelope; anything larger is rejected to
// keep a malformed stream from forcing huge allocations.
const MaxFrame = 1 << 20

type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) proc(p types.ProcID) {
	w.u8(uint8(p.Role))
	w.u32(uint32(p.Index))
}
func (w *writer) tag(t types.Tag) {
	w.i64(t.TS)
	w.proc(t.WID)
}
func (w *writer) value(v types.Value) {
	w.tag(v.Tag)
	w.str(v.Data)
}

// Smallest encodings of the repeated elements. A declared count is checked
// against the bytes left in the frame divided by these before anything
// count-sized is allocated, so a 9-byte frame cannot ask for a megabyte.
const (
	procSize     = 1 + 4
	minValueSize = 8 + procSize + 4 // ts, wid, payload length
	minEntrySize = minValueSize + 4 // value, updated count
)

// Positions in an envelope's body: its key's length follows the two
// process ids, and its kind byte follows the key and the fixed-size
// opID, round, reply flag, epoch and weight.
const (
	keyLenAt    = 2 * procSize
	keyToKind   = 8 + 1 + 1 + 8 + 8
	minEnvelope = keyLenAt + 4 + keyToKind + 1
)

// cutsPayload reports whether a message of kind k has its values' Data
// cut from the frame's text, which shares the frame's one block with its
// arenas (frameCuts): every kind that carries values (FastRead,
// FastReadAck, QueryAck, LogAck, Update) does. A replica keeps an
// Update's value as its key's current value until a later write, so it
// keeps it only through opkit's adopt, whose one allocation holds the
// value and a copy of its payload: a kept value never pins its block.
func cutsPayload(k Kind) bool {
	return k == KindFastRead || k == KindFastReadAck || k == KindQueryAck || k == KindLogAck || k == KindUpdate
}

// inArena reports whether a message of kind k carries one value, or one
// value's tag, by pointer, which decoding places in the frame's value
// arena.
func inArena(k Kind) bool { return k == KindQueryAck || k == KindUpdate || k == KindTagAck }

// frameCuts is what the envelopes of one frame share: the string their
// keys and cut payloads (cutsPayload) are cut from, and the arenas their
// payloads' elements live in. vals holds every QueryAck's and Update's
// value, every TagAck's tag (in a slot's Tag) and every FastRead's
// valQueue, vec every FastReadAck's vector, ups those vectors' updated
// sets and reads every FastRead itself, the header a *FastRead payload
// points at. Decoding an envelope consumes the prefix of each that
// belongs to it. All five are one block (newCuts), so a key, a value, a
// request or a slice kept from any envelope of the frame keeps the whole
// block alive.
type frameCuts struct {
	text  string
	vals  []types.Value
	vec   []VectorEntry
	ups   []types.ProcID
	reads []FastRead
}

// cutFrames prepares the frameCuts of the count envelope frames at the
// start of b in two passes over their headers: the first sizes the text
// decoding cuts rather than copies (each one's key and, for a kind
// cutsPayload names, its payload, in frame order), as many arena slots
// as the frames' payloads declare and one FastRead header per FastRead
// frame, and the second writes the text into the frame's one block
// (newCuts) before the string over it exists. A fast-read payload's
// counts come from untrusted bytes, so each is taken only when that many
// elements of the smallest encoding fit in the payload (fastCounts); a
// count that does not fit adds nothing, and the decode rejects its frame.
// The block is thus bounded by the frame's bytes, not by what it claims.
// It stops at the first frame too short to hold a key and a kind; the
// decode rejects it.
func cutFrames(b []byte, count int) frameCuts {
	frames, nvals, nvec, nups, nreads, ntext := 0, 0, 0, 0, 0, 0
	for rest := b; frames < count; frames++ {
		key, payload, kind, next, ok := splitFrame(rest)
		if !ok {
			break
		}
		ntext += len(key)
		if cutsPayload(kind) {
			ntext += len(payload)
		}
		switch {
		case kind == KindFastRead || kind == KindFastReadAck:
			v, e, u := fastCounts(kind, payload)
			nvals, nvec, nups = nvals+v, nvec+e, nups+u
			if kind == KindFastRead {
				nreads++
			}
		case inArena(kind):
			nvals++
		}
		rest = next
	}
	fc, text := newCuts(nvals, nvec, nups, nreads, ntext)
	t := text
	for rest := b; frames > 0; frames-- {
		key, payload, kind, next, _ := splitFrame(rest)
		t = t[copy(t, key):]
		if cutsPayload(kind) {
			t = t[copy(t, payload):]
		}
		rest = next
	}
	if ntext > 0 {
		fc.text = unsafe.String(&text[0], ntext)
	}
	return fc
}

// splitFrame splits the envelope frame at the start of b into its key,
// its kind and its payload, and returns the bytes after it. ok is false
// at a frame too short to hold a key and a kind.
func splitFrame(b []byte) (key, payload []byte, kind Kind, rest []byte, ok bool) {
	if len(b) < 4+minEnvelope {
		return nil, nil, 0, nil, false
	}
	n := uint64(binary.BigEndian.Uint32(b))
	if n > uint64(len(b)-4) || n < minEnvelope {
		return nil, nil, 0, nil, false
	}
	body := b[4 : 4+n]
	k := uint64(binary.BigEndian.Uint32(body[keyLenAt:]))
	after := body[keyLenAt+4:]
	if k > uint64(len(after)-keyToKind-1) {
		return nil, nil, 0, nil, false
	}
	return after[:k], after[k+keyToKind+1:], Kind(after[k+keyToKind]), b[4+n:], true
}

// newCuts allocates a frame's arenas and the bytes its text is written
// into. A frame with an arena whose counts fit a block class (blockFor)
// gets them all in one block: its value arena, vector arena and FastRead
// headers first, the only part the GC scans, then a pointer-free tail
// holding the updated sets (a ProcID holds no pointer) and the text. The
// block holds as many headers as values (an honest valQueue is never
// empty), so a frame with more FastReads than that makes its extra
// headers one by one (carve). A frame with neither a value nor a vector
// entry has no block: its text is one allocation, and its headers, if
// any, one more; and one past the largest class gets one allocation per
// part.
func newCuts(nvals, nvec, nups, nreads, ntext int) (fc frameCuts, text []byte) {
	blk := blockFor(nvals, nvec, nreads > 0, nups*procBytes+ntext)
	if blk == nil {
		if nvals > 0 {
			fc.vals = make([]types.Value, nvals)
		}
		if nvec > 0 {
			fc.vec = make([]VectorEntry, nvec)
		}
		if nups > 0 {
			fc.ups = make([]types.ProcID, nups)
		}
		if nreads > 0 {
			fc.reads = make([]FastRead, nreads)
		}
		return fc, make([]byte, ntext)
	}
	p := reflect.New(blk.typ).UnsafePointer()
	if nvals > 0 {
		fc.vals = unsafe.Slice((*types.Value)(p), nvals)
	}
	if nvec > 0 {
		fc.vec = unsafe.Slice((*VectorEntry)(unsafe.Add(p, blk.vecAt)), nvec)
	}
	if blk.reads > 0 {
		fc.reads = unsafe.Slice((*FastRead)(unsafe.Add(p, blk.readsAt)), min(nreads, blk.reads))
	}
	if n := nups*procBytes + ntext; n > 0 {
		tail := unsafe.Slice((*byte)(unsafe.Add(p, blk.tailAt)), n)
		if nups > 0 {
			fc.ups = unsafe.Slice((*types.ProcID)(unsafe.Pointer(&tail[0])), nups)
		}
		text = tail[nups*procBytes:]
	}
	return fc, text
}

// procBytes is a ProcID's size in a block's tail.
const procBytes = int(unsafe.Sizeof(types.ProcID{}))

// Block classes. A block type holds a power of two of values, a power of
// two of vector entries, either no FastRead header or one per value slot,
// and a tail that fills the object to a quarter step of its power of two
// bytes: valClasses counts 0 and 1 to 128 values, vecClasses 0 and 1 to
// 32 entries, readClasses the two header arenas and sizeClasses objects
// of 16 B to 16 KiB. Each class has one slot in blocks, so however many
// shapes untrusted frames declare, decoding builds at most len(blocks)
// types.
const (
	valClasses  = 9
	vecClasses  = 7
	readClasses = 2
	sizeClasses = 41
)

// block is one class's block type, the offsets of its vector arena, its
// FastRead headers and its tail, and how many headers it holds.
type block struct {
	typ                    reflect.Type
	vecAt, readsAt, tailAt uintptr
	reads                  int
}

// blocks holds each class's block type, built on first use. A lookup is
// one atomic load: two decoders that build a class at once build the
// same type (reflect caches it), and either store wins.
var blocks [readClasses * valClasses * vecClasses * sizeClasses]atomic.Pointer[block]

// blockFor returns the block type for nvals values, nvec vector entries,
// a FastRead header per value slot if reads (and there are values to
// size them by) and a tail of ntail bytes, or nil for a frame with
// neither arena or one past the largest class.
func blockFor(nvals, nvec int, reads bool, ntail int) *block {
	if nvals == 0 && nvec == 0 {
		return nil
	}
	v, e := countClass(nvals), countClass(nvec)
	if v >= valClasses || e >= vecClasses {
		return nil
	}
	h, nreads := 0, 0
	if reads && v > 0 {
		h, nreads = 1, classCount(v)
	}
	arenas := classCount(v)*int(unsafe.Sizeof(types.Value{})) + classCount(e)*int(unsafe.Sizeof(VectorEntry{})) + nreads*int(unsafe.Sizeof(FastRead{}))
	need := arenas + ntail
	c := sizeClass(need + header(need))
	if c >= sizeClasses {
		return nil
	}
	slot := &blocks[((h*valClasses+v)*vecClasses+e)*sizeClasses+c]
	if blk := slot.Load(); blk != nil {
		return blk
	}
	size := classSize(c)
	typ := reflect.StructOf([]reflect.StructField{
		{Name: "Vals", Type: reflect.ArrayOf(classCount(v), reflect.TypeFor[types.Value]())},
		{Name: "Vec", Type: reflect.ArrayOf(classCount(e), reflect.TypeFor[VectorEntry]())},
		{Name: "Reads", Type: reflect.ArrayOf(nreads, reflect.TypeFor[FastRead]())},
		{Name: "Tail", Type: reflect.ArrayOf(size-header(size)-arenas, reflect.TypeFor[byte]())},
	})
	blk := &block{typ: typ, vecAt: typ.Field(1).Offset, readsAt: typ.Field(2).Offset, tailAt: typ.Field(3).Offset, reads: nreads}
	slot.Store(blk)
	return blk
}

// header is what Go's allocator adds to an object of n bytes with
// pointers: an 8-byte type header in front of one over 512 bytes.
func header(n int) int {
	if n > 512 {
		return 8
	}
	return 0
}

// countClass is the class of n arena slots: 0 for none, else c for the
// 1<<(c-1) slots n rounds up to.
func countClass(n int) int {
	if n == 0 {
		return 0
	}
	return bits.Len(uint(n-1)) + 1
}

// classCount is the number of slots countClass's class c holds.
func classCount(c int) int {
	if c == 0 {
		return 0
	}
	return 1 << (c - 1)
}

// sizeClass is the class of an object of n > 0 bytes: the c whose
// classSize(c), a quarter step of its power of two (16, 20, 24, 28, 32,
// 40, ...), n rounds up to.
func sizeClass(n int) int {
	m := uint(max(n, 16) - 1)
	s := bits.Len(m) - 3 // m>>s is in [4, 8)
	return 4*s + int(m>>s) - 11
}

// classSize is the number of bytes sizeClass's class c holds.
func classSize(c int) int { return (4 + c%4) << (c/4 + 2) }

// fastCounts reads the arena slots a FastRead's or a FastReadAck's payload
// needs: its valQueue's values, or its vector's entries and their updated
// sets' members. A leading count is taken only if that many elements of
// the smallest encoding fit in the rest of the payload, the check the
// decode's count makes, so every slot is backed by at least minValueSize
// (or minEntrySize, procSize) of the frame's bytes.
func fastCounts(kind Kind, payload []byte) (vals, vec, ups int) {
	if len(payload) < 4 {
		return 0, 0, 0
	}
	n := uint64(binary.BigEndian.Uint32(payload))
	rest := payload[4:]
	if kind == KindFastRead {
		if n > uint64(len(rest)/minValueSize) {
			return 0, 0, 0
		}
		return int(n), 0, 0
	}
	if n > uint64(len(rest)/minEntrySize) {
		return 0, 0, 0
	}
	return 0, int(n), countUpdated(rest, int(n))
}

// carve cuts the next n slots off *arena, clipped to n so an append to one
// cannot run into the next, or makes n of its own when the arena is short
// (a frame cutFrames did not count, which the decode then rejects).
func carve[T any](arena *[]T, n int) []T {
	if len(*arena) < n {
		return make([]T, n)
	}
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

type reader struct {
	buf []byte
	// text starts with buf's bytes from textAt on (the key, then a cut
	// payload): cut slices its results from it instead of copying each
	// one.
	text   string
	textAt int
	off    int
	err    error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) bytes() []byte {
	n := r.u32()
	if n > MaxFrame {
		r.fail(ErrOversize)
		return nil
	}
	return r.take(int(n))
}

// str reads a string into its own allocation.
func (r *reader) str() string { return string(r.bytes()) }

// cut reads a string as a slice of text, or copies it where text does not
// reach (a frame cutFrames stopped at, which the decode then rejects).
func (r *reader) cut() string {
	b := r.bytes()
	from, to := r.off-len(b)-r.textAt, r.off-r.textAt
	if len(b) == 0 || from < 0 || to > len(r.text) {
		return string(b)
	}
	return r.text[from:to]
}

// count reads an element count and rejects it unless that many elements of
// at least min bytes each fit in the rest of the frame (ErrTruncated, the
// verdict on any count the frame's bytes cannot back) and it is at most
// MaxFrame/8.
func (r *reader) count(min int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if uint64(n) > uint64((len(r.buf)-r.off)/min) {
		r.fail(ErrTruncated)
		return 0
	}
	if n > MaxFrame/8 {
		r.fail(ErrOversize)
		return 0
	}
	return int(n)
}

// countUpdated sums the updated-set sizes of the n vector entries encoded
// at b, reading lengths only, so cutFrames can size the array every set is
// cut from. It stops at the first length that overruns b (the decode
// proper reports it), so the sum is at most len(b)/procSize.
func countUpdated(b []byte, n int) int {
	total := 0
	for ; n > 0 && len(b) >= minEntrySize; n-- {
		d := uint64(binary.BigEndian.Uint32(b[minValueSize-4:]))
		if d > uint64(len(b)-minEntrySize) {
			break
		}
		b = b[minValueSize+int(d):]
		k := uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
		if k > uint64(len(b)/procSize) {
			break
		}
		total += int(k)
		b = b[int(k)*procSize:]
	}
	return total
}

func (r *reader) proc() types.ProcID {
	role := types.Role(r.u8())
	idx := r.u32()
	if r.err != nil {
		return types.ProcID{}
	}
	if role > types.RoleWriter {
		r.fail(errBadProcRole)
		return types.ProcID{}
	}
	if idx > math.MaxInt32 {
		r.fail(ErrOversize)
		return types.ProcID{}
	}
	return types.ProcID{Role: role, Index: int(idx)}
}

func (r *reader) tag() types.Tag {
	ts := r.i64()
	return types.Tag{TS: ts, WID: r.proc()}
}

// value reads a value whose Data owns its bytes.
func (r *reader) value() types.Value {
	t := r.tag()
	return types.Value{Tag: t, Data: r.str()}
}

// cutValue reads a value whose Data is cut from the frame's text.
func (r *reader) cutValue() types.Value {
	t := r.tag()
	return types.Value{Tag: t, Data: r.cut()}
}

// Encode serializes an envelope to a self-delimiting frame:
// a 4-byte big-endian length followed by the body.
func Encode(e Envelope) ([]byte, error) { return AppendEnvelope(nil, e) }

// AppendEnvelope appends the envelope's frame (as produced by Encode) to
// dst and returns the extended slice. Batch assembly and pooling callers
// use it to amortize allocations across frames.
func AppendEnvelope(dst []byte, e Envelope) ([]byte, error) {
	if e.Payload == nil {
		return nil, ErrBadKind
	}
	start := len(dst)
	w := writer{buf: dst}
	w.u32(0) // length placeholder
	w.proc(e.From)
	w.proc(e.To)
	w.str(e.Key)
	w.u64(e.OpID)
	w.u8(e.Round)
	if e.IsReply {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u64(e.Epoch)
	w.u64(e.Weight)
	w.u8(uint8(e.Payload.Kind()))
	switch m := e.Payload.(type) {
	case Query, TagQuery:
		// no body
	case TagAck:
		if m.Tag == nil {
			return nil, fmt.Errorf("%w: TagAck without a tag", ErrBadKind)
		}
		w.tag(*m.Tag)
	case QueryAck:
		if m.Val == nil {
			return nil, fmt.Errorf("%w: QueryAck without a value", ErrBadKind)
		}
		w.value(*m.Val)
	case Update:
		if m.Val == nil {
			return nil, fmt.Errorf("%w: Update without a value", ErrBadKind)
		}
		w.value(*m.Val)
	case UpdateAck:
		// no body
	case *FastRead:
		w.u32(uint32(len(m.ValQueue)))
		for _, v := range m.ValQueue {
			w.value(v)
		}
	case FastReadAck:
		w.u32(uint32(len(m.Vector)))
		for _, ent := range m.Vector {
			w.value(ent.Val)
			w.u32(uint32(len(ent.Updated)))
			for _, p := range ent.Updated {
				w.proc(p)
			}
		}
		w.tag(m.Floor)
	case LogAck:
		w.u32(uint32(len(m.Events)))
		for _, ev := range m.Events {
			w.proc(ev.Client)
			w.value(ev.Val)
		}
	default:
		return nil, fmt.Errorf("%w: %T", ErrBadKind, e.Payload)
	}
	body := len(w.buf) - start - 4
	if body > MaxFrame {
		return nil, ErrOversize
	}
	binary.BigEndian.PutUint32(w.buf[start:start+4], uint32(body))
	return w.buf, nil
}

// Decode parses one frame produced by Encode. It returns the envelope and
// the number of bytes consumed, so callers can decode from a stream buffer.
//
// Nothing in the envelope refers to buf. The Key and, in a FastRead, a
// FastReadAck, a QueryAck, a LogAck or an Update, the whole payload are
// copied into ONE text, and the Key and every value's Data in the
// valQueue, vector, QueryAck, log or Update are cut from it. A QueryAck's
// or an Update's Val and a TagAck's Tag point into a value arena the
// frame's envelopes share; a FastRead's valQueue is carved from that
// value arena too, and a FastReadAck's vector and its Updated sets from
// two arenas of their own, each slice clipped to its length. A FastRead
// decodes as a *FastRead whose header sits in an arena of its own, so
// the Payload interface boxes nothing for it. The text and the arenas
// are ONE block (cutFrames): however many envelopes and entries a frame
// holds, it decodes into one allocation, and past the largest block
// class into one text and at most four arenas (a frame with more
// FastReads than values makes its extra headers one by one). Any key,
// Data, pointer or slice a frame decodes into therefore keeps the whole
// block alive: code that stores a key, a value or a request beyond the
// message's life stores a copy of its own (keyreg clones keys, a replica
// adopts a value in one allocation with its payload, a reader's valQueue
// clones the payloads it adds, the history recorder clones the value a
// read returns, whoever keeps a QueryAck's or an Update's value copies
// *Val; see opkit's package doc and its Keep rule). The Payload
// interface still boxes a FastReadAck, a LogAck and a log's events.
func Decode(buf []byte) (Envelope, int, error) {
	var e Envelope
	fc := cutFrames(buf, 1)
	n, err := decode(&e, buf, &fc)
	if err != nil {
		return Envelope{}, 0, err
	}
	return e, n, nil
}

// decode is Decode into *e, which it fills in place, cutting the
// envelope's key and cut payload from the start of fc.text and taking its
// QueryAck or Update value, TagAck tag, FastRead header, valQueue, vector
// and updated sets from the front of fc's arenas; fc comes from a
// cutFrames of a run of frames starting with this one. On success it
// advances fc past what the envelope used, for the next frame of the run.
// On error *e holds garbage.
func decode(e *Envelope, buf []byte, fc *frameCuts) (int, error) {
	if len(buf) < 4 {
		return 0, ErrTruncated
	}
	body := binary.BigEndian.Uint32(buf[:4])
	if body > MaxFrame {
		return 0, ErrOversize
	}
	total := 4 + int(body)
	if len(buf) < total {
		return 0, ErrTruncated
	}
	text := fc.text
	r := &reader{buf: buf[4:total], text: text, textAt: keyLenAt + 4}
	e.From = r.proc()
	e.To = r.proc()
	e.Key = r.cut()
	used := len(e.Key)
	e.OpID = r.u64()
	e.Round = r.u8()
	// Strict canonical format: the reply flag must be exactly 0 or 1, so
	// every accepted frame re-encodes to the same bytes.
	flag := r.u8()
	if flag > 1 {
		r.fail(errBadFlag)
	}
	e.IsReply = flag == 1
	e.Epoch = r.u64()
	e.Weight = r.u64()
	kind := Kind(r.u8())
	if cutsPayload(kind) {
		// cutFrames put the payload right after the key.
		r.text, r.textAt = text[min(used, len(text)):], r.off
		used += len(r.buf) - r.off
	}
	switch kind {
	case KindQuery:
		e.Payload = Query{}
	case KindTagQuery:
		e.Payload = TagQuery{}
	case KindTagAck:
		v := &carve(&fc.vals, 1)[0]
		v.Tag = r.tag()
		e.Payload = TagAck{Tag: &v.Tag}
	case KindQueryAck:
		v := &carve(&fc.vals, 1)[0]
		*v = r.cutValue()
		e.Payload = QueryAck{Val: v}
	case KindUpdate:
		v := &carve(&fc.vals, 1)[0]
		*v = r.cutValue()
		e.Payload = Update{Val: v}
	case KindUpdateAck:
		e.Payload = UpdateAck{}
	case KindFastRead:
		m := &carve(&fc.reads, 1)[0]
		if n := r.count(minValueSize); n > 0 {
			m.ValQueue = carve(&fc.vals, n)
			for i := 0; i < n && r.err == nil; i++ {
				m.ValQueue[i] = r.cutValue()
			}
		}
		e.Payload = m
	case KindFastReadAck:
		m := FastReadAck{}
		if n := r.count(minEntrySize); n > 0 {
			m.Vector = carve(&fc.vec, n)
			for i := 0; i < n && r.err == nil; i++ {
				ent := &m.Vector[i]
				ent.Val = r.cutValue()
				if k := r.count(procSize); k > 0 {
					ent.Updated = carve(&fc.ups, k)
					for j := range ent.Updated {
						ent.Updated[j] = r.proc()
					}
				}
			}
		}
		m.Floor = r.tag()
		e.Payload = m
	case KindLogAck:
		m := LogAck{}
		if n := r.count(procSize + minValueSize); n > 0 {
			m.Events = make([]LogEvent, n)
			for i := 0; i < n && r.err == nil; i++ {
				m.Events[i] = LogEvent{Client: r.proc(), Val: r.cutValue()}
			}
		}
		e.Payload = m
	default:
		return 0, fmt.Errorf("%w: kind %d", ErrBadKind, kind)
	}
	if r.err != nil {
		return 0, r.err
	}
	if r.off != len(r.buf) {
		return 0, fmt.Errorf("proto: %d trailing bytes in frame", len(r.buf)-r.off)
	}
	fc.text = text[min(used, len(text)):]
	return total, nil
}
