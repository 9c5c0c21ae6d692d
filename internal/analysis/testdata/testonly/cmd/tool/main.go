// Command tool is a package main in a subdirectory: its uses count.
package main

import corpus "repro/internal/corpus"

func main() {
	corpus.UsedByMain(corpus.Settings{Used: corpus.Box[int]{Val: 1}.Get()})
}
