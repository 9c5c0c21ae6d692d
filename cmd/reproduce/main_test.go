package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from a -j 1 run")

// TestReproduceAllGolden pins the rendered output of every experiment: a
// quick `-exp all` run must match testdata/all.golden byte for byte, both
// serially and with two sweep workers. Any change to a model, the engine or
// a renderer that moves a number fails here; regenerate with
// `go test ./cmd/reproduce -run TestReproduceAllGolden -update` when the
// change is intended.
func TestReproduceAllGolden(t *testing.T) {
	golden := filepath.Join("testdata", "all.golden")
	for _, j := range []string{"1", "2"} {
		var out bytes.Buffer
		if code := run([]string{"-exp", "all", "-j", j}, &out); code != 0 {
			t.Fatalf("-j %s: exit code %d", j, code)
		}
		if *update && j == "1" {
			if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-j %s: output differs from %s at byte %d", j, golden, firstDiff(out.Bytes(), want))
		}
	}
}

// firstDiff returns the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
