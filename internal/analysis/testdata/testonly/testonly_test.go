package corpus

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 || (Settings{TestedOnly: 1}).TestedOnly != 1 {
		t.Fatal("wrong")
	}
	Allowed()
	c := &Counter{}
	Count(c, 1)
	if c.seen != 1 {
		t.Fatal("wrong")
	}
}
