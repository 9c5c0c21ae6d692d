// Corpus for the testonly analyzer: exported API that no non-test code
// of the module uses. Lines marked "// want" must produce exactly one
// finding.
package corpus

import "fmt"

// OnlyTested is called from testonly_test.go and nowhere else.
func OnlyTested() int { return 1 } // want

// OnlyXTested is called from the external test package and nowhere else.
func OnlyXTested() int { return 2 } // want

// Unused is called from nowhere.
func Unused() {} // want

// Settings has a field that only a test sets.
type Settings struct {
	Used       int
	TestedOnly int // want
}

// Runner is an interface declared in the module.
type Runner interface {
	Run()
	Stop() // want
}

// Job implements Runner. Its methods are reached through the interface,
// so neither is reported, though no code names Job.Stop.
type Job struct{}

func (Job) Run()  {}
func (Job) Stop() {}

// Queue is a generic Runner; its methods are not reported either.
type Queue[T any] struct{ items []T }

func (q *Queue[T]) Run()  { q.items = q.items[:0] }
func (q *Queue[T]) Stop() {}

// Label implements fmt.Stringer; fmt calls String with no static
// reference.
type Label string

func (l Label) String() string { return string(l) }

// Box is generic; the tool uses its fields and methods through an
// instance, Box[int].
type Box[T any] struct {
	Val T
}

func (b Box[T]) Get() T { return b.Val }

// UsedByMain is called from the package main in cmd/tool.
func UsedByMain(s Settings) {
	var r Runner = Job{}
	r.Run()
	fmt.Println(Label("job"), s.Used)
}

// Allowed is test-only on purpose.
//
//cdivet:allow testonly corpus: demonstrates a justified suppression
func Allowed() {}
