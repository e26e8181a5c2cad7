// Fixture for the frozenslice analyzer: `// frozen:` fields in the shape
// of opkit.VectorServer and opkit.ReaderState, with the clean
// build-then-publish forms and the in-place writes a refactor could
// reintroduce.
package fixture

type entry struct {
	val     int
	updated []int
}

type server struct {
	// frozen: replies are this slice.
	vec   []entry
	queue []int // frozen: requests are this slice
	plain []entry
}

// publish is the clean shape: build a new slice, assign the field.
func (s *server) publish(e entry) {
	vec := make([]entry, len(s.vec), len(s.vec)+1)
	copy(vec, s.vec)
	vec[0].updated = append(vec[0].updated[:0:0], 1)
	vec = append(vec, e)
	s.vec = vec
	s.queue = append([]int(nil), s.queue...)
}

// reply hands the frozen slice out, clipped; reading is always fine.
func (s *server) reply() ([]entry, int) {
	n := 0
	for _, e := range s.vec {
		n += e.val + len(e.updated)
	}
	return s.vec[:len(s.vec):len(s.vec)], n + s.queue[0]
}

// clippedAppend copies because the first argument has no spare capacity.
func (s *server) clippedAppend(e entry) []entry {
	return append(s.vec[:len(s.vec):len(s.vec)], e)
}

func (s *server) indexAssign(e entry) {
	s.vec[0] = e // want "write through frozen field vec"
}

func (s *server) fieldThroughIndex(u []int) {
	s.vec[1].updated = u // want "write through frozen field vec"
}

func (s *server) deepThroughIndex() {
	s.vec[1].updated[0] = 7 // want "write through frozen field vec"
	(s.vec[2:])[0].val = 1  // want "write through frozen field vec"
}

func (s *server) opAssign() {
	s.queue[0] += 2 // want "write through frozen field queue"
	s.queue[1]++    // want "write through frozen field queue"
}

func (s *server) multiAssign(e entry) {
	s.plain[0], s.vec[0] = e, e // want "write through frozen field vec"
}

func (s *server) appendInPlace(e entry) {
	s.vec = append(s.vec, e)                  // want "append to frozen field vec"
	_ = append(s.vec[:1], e)                  // want "append to frozen field vec"
	_ = append(s.vec[:1:2], e)                // want "append to frozen field vec"
	s.queue = append((s.queue), 1)            // want "append to frozen field queue"
	s.plain = append(s.plain, s.vec...)       // reading a frozen slice as the source
	s.plain = append(s.plain[:0], s.plain...) // unannotated field
}

func (s *server) copyInto(src []entry) {
	copy(s.vec, src)     // want "copy into frozen field vec"
	copy(s.vec[1:], src) // want "copy into frozen field vec"
	copy(s.plain, s.vec) // frozen as the source
}

// other has a field of the same name that is not annotated.
type other struct{ vec []entry }

func (o *other) write(e entry) {
	o.vec[0] = e
	o.vec = append(o.vec, e)
}

// suppressed pins the escape hatch.
func (s *server) suppressed(e entry) {
	//lint:ignore frozenslice fixture: the slice was built in this function and not yet published
	s.vec[0] = e
}
