// Command tool is a package main in a subdirectory: its uses count.
package main

import (
	"fmt"

	corpus "repro/internal/corpus"
)

func main() {
	corpus.UsedByMain(corpus.Settings{Used: corpus.Box[int]{Val: 1}.Get()})
	corpus.Count(&corpus.Counter{}, 1)
	corpus.Index[corpus.Keyed{}]++
	_ = corpus.Same(corpus.Compared{}, corpus.Compared{}) && corpus.Show(corpus.Printed{}) != ""
	_, _ = corpus.Encode(nil)
	_ = corpus.Render(corpus.Named{}) + fmt.Sprint(corpus.Names)
}
