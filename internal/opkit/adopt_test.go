package opkit

import (
	"strings"
	"testing"
	"unsafe"

	"fastreg/internal/types"
)

// adopt copies a value and its payload in one allocation up to the largest
// box (984 bytes) and in two past it, and the copy never shares the
// argument's bytes. Each box fills a size class of Go's allocator.
func TestAdoptAllocs(t *testing.T) {
	for b, want := range map[uintptr]uintptr{
		unsafe.Sizeof(owned[[8]byte]{}):   48,
		unsafe.Sizeof(owned[[24]byte]{}):  64,
		unsafe.Sizeof(owned[[40]byte]{}):  80,
		unsafe.Sizeof(owned[[88]byte]{}):  128,
		unsafe.Sizeof(owned[[216]byte]{}): 256,
		unsafe.Sizeof(owned[[280]byte]{}): 320,
		unsafe.Sizeof(owned[[472]byte]{}): 512,
		unsafe.Sizeof(owned[[984]byte]{}): 1024,
	} {
		if b != want {
			t.Errorf("an owned box takes %d bytes, want %d", b, want)
		}
	}
	for _, n := range []int{0, 1, 8, 9, 32, 256, 984, 985, 4096} {
		// The payload is a slice of a larger string, as a cut Data is.
		frame := strings.Repeat("x", 7) + strings.Repeat("v", n) + "tail"
		v := types.Value{Tag: types.Tag{TS: int64(n + 1), WID: types.Writer(2)}, Data: frame[7 : 7+n]}
		var got *types.Value
		allocs := testing.AllocsPerRun(100, func() { got = adopt(v) })
		want := 1.0
		if n > 984 {
			want = 2
		}
		if allocs != want {
			t.Errorf("adopt of a %d-byte payload: %v allocs, want %v", n, allocs, want)
		}
		if *got != v {
			t.Errorf("adopt of a %d-byte payload: %v, want %v", n, *got, v)
		}
		if n > 0 && unsafe.StringData(got.Data) == unsafe.StringData(v.Data) {
			t.Errorf("adopt of a %d-byte payload shares the argument's bytes", n)
		}
	}
}
