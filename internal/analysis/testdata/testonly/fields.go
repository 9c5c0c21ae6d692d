package corpus

import (
	"encoding/json"
	"fmt"
)

// Counter's fields are written on every call, but only some are read.
type Counter struct {
	assigned int // want
	added    int // want
	bumped   int // want
	keyed    int // want
	seen     int // want
	// inner is only written through: inner.n++ writes inner too.
	inner struct { // want
		n int // want
	}
	addr  int
	calls fmt.Stringer
}

// Count writes every field of c and reads only addr and calls.
func Count(c *Counter, n int) *int {
	c.assigned = n
	c.added += n
	c.bumped++
	c.seen++
	c.inner.n++
	*c = Counter{keyed: n}
	_ = c.calls.String()
	return &c.addr
}

// Compared is read as a whole by ==, so neither field is reported.
type Compared struct{ A, b int }

// Same compares two values.
func Same(x, y Compared) bool { return x == y }

// Keyed is read as a whole as a map key.
type Keyed struct{ k int }

// Index counts by key.
var Index = map[Keyed]int{}

// Printed is read as a whole by fmt's %#v, nested fields included.
type Printed struct {
	N   int
	Sub struct{ m int }
}

// Show prints p.
func Show(p Printed) string { return fmt.Sprintf("%#v", p) }

// Encoded is read as a whole by encoding/json through a slice.
type Encoded struct {
	Name string
	Val  int
}

// Encode marshals es.
func Encode(es []Encoded) ([]byte, error) {
	es = append(es, Encoded{Name: "x", Val: 1})
	return json.Marshal(es)
}

// Named reaches fmt through a method-bearing interface, which reads it
// only through its methods: unread stays reported.
type Named struct {
	label  string
	unread int // want
}

func (n Named) String() string { return n.label }

// Render renders s.
func Render(s fmt.Stringer) string { return s.String() }

// KeyName names a map literal's key; only a struct literal's keys write.
const KeyName = "k"

// Names is keyed by KeyName.
var Names = map[string]int{KeyName: 1}
