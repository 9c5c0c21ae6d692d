package corpus_test

import (
	"testing"

	corpus "repro/internal/corpus"
)

func TestOnlyXTested(t *testing.T) {
	if corpus.OnlyXTested() != 2 {
		t.Fatal("wrong")
	}
}
