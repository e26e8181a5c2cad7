package fixture

// value has the shape of types.Value: a tag and a payload.
type value struct {
	tag  struct{ ts int64 }
	data string
}

func (v *value) set(d string) { v.data = d }

// store has the shape of opkit.StoreServer: a frozen pointer every reply
// shares until the next adopt.
type store struct {
	// frozen: every reply points at it until the next adopt.
	cur   *value
	plain *value
}

type reply struct{ val *value }

// adopt is the clean shape: build a new value, assign the field.
func (s *store) adopt(v value) {
	if s.cur.tag.ts < v.tag.ts {
		nv := v
		s.cur = &nv
	}
	s.cur = new(value)
	s.cur, s.plain = &v, &v
}

// read hands the pointer out and reads through it; both are fine.
func (s *store) read() (reply, string, value) {
	return reply{val: s.cur}, s.cur.data, *s.cur
}

func (s *store) writePointee(v value) {
	*s.cur = v // want "write through frozen field cur: build a new value"
}

func (s *store) writeField(d string) {
	s.cur.data = d    // want "write through frozen field cur"
	(*s.cur).data = d // want "write through frozen field cur"
	(s.cur).data += d // want "write through frozen field cur"
}

func (s *store) writeNested() {
	s.cur.tag.ts++   // want "write through frozen field cur"
	s.cur.tag.ts = 1 // want "write through frozen field cur"
}

func (s *store) multiAssign(v value) {
	*s.plain, *s.cur = v, v // want "write through frozen field cur"
}

// unannotated pointer fields, and the syntactic limits: a local alias
// and a method with a pointer receiver are not followed.
func (s *store) notReported(d string) {
	s.plain.data = d
	*s.plain = value{}
	p := s.cur
	p.data = d
	s.cur.set(d)
}
