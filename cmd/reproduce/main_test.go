package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens (all.golden from a -j 1 run)")

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
		if code := run([]string{"-exp", "all", "-j", j}, &out, os.Stderr); code != 0 {
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

// TestChurnFaultLogGolden pins `-exp churn -faultlog` byte for byte: the
// churn section followed by the outage schedule faults.Config.Describe
// draws for each nonzero churn intensity, from the same window generator
// the injector steps.
func TestChurnFaultLogGolden(t *testing.T) {
	golden := filepath.Join("testdata", "churn-faultlog.golden")
	var out bytes.Buffer
	if code := run([]string{"-exp", "churn", "-faultlog", "-j", "1"}, &out, os.Stderr); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s at byte %d", golden, firstDiff(out.Bytes(), want))
	}
}

// TestServingTrace: -trace writes a non-empty Chrome trace and leaves the
// section's rendered output as the golden has it, followed by one line
// naming the file.
func TestServingTrace(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	header := "\n======== serving ========\n"
	start := bytes.Index(golden, []byte(header))
	if start < 0 {
		t.Fatal("no serving section in the golden")
	}
	section := golden[start:]
	if end := bytes.Index(section[len(header):], []byte("\n======== ")); end >= 0 {
		section = section[:len(header)+end]
	}
	trace := filepath.Join(t.TempDir(), "serving.json")
	var out bytes.Buffer
	if code := run([]string{"-exp", "serving", "-j", "2", "-trace", trace}, &out, os.Stderr); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	want := string(section) + "wrote serving trace to " + trace + "\n"
	if out.String() != want {
		t.Errorf("output differs from the golden's serving section at byte %d", firstDiff(out.Bytes(), []byte(want)))
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("trace file missing or empty (stat: %v)", err)
	}
}

// TestTraceFilesPinned pins both quick-mode -trace files by byte length
// and sha256, serially and with two sweep workers: the serving trace at
// the -trace path and the churn trace beside it. A change to a traced
// cell, the recorder or the Chrome trace writer that moves one byte fails
// here.
func TestTraceFilesPinned(t *testing.T) {
	want := []struct {
		suffix string
		size   int
		sha256 string
	}{
		{"", 666060, "4b34c7cc62061da92191a3b8474e2e979cae1ccaa8f9125e16fa3cf35eb89cc4"},
		{".churn", 38742, "af590d9c18876d5741354dc990e98430d0ed116fb5ff17bf00be9bc7c308d025"},
	}
	for _, j := range []string{"1", "2"} {
		trace := filepath.Join(t.TempDir(), "trace.json")
		if code := run([]string{"-exp", "serving,churn", "-j", j, "-trace", trace}, io.Discard, os.Stderr); code != 0 {
			t.Fatalf("-j %s: exit code %d", j, code)
		}
		for _, w := range want {
			data, err := os.ReadFile(trace + w.suffix)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); len(data) != w.size || got != w.sha256 {
				t.Errorf("-j %s: trace%s is %d bytes, sha256 %s; want %d bytes, sha256 %s", j, w.suffix, len(data), got, w.size, w.sha256)
			}
		}
	}
}

// TestTableMatchesGolden pins the experiment table to the golden: its ids
// are the golden's section headers, in order.
func TestTableMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var headers []string
	for _, m := range regexp.MustCompile(`(?m)^======== (\S+) ========$`).FindAllSubmatch(golden, -1) {
		headers = append(headers, string(m[1]))
	}
	if got := ids(func(experiment) bool { return true }); !slices.Equal(got, headers) {
		t.Errorf("table ids %v\nwant golden headers %v", got, headers)
	}
}

// TestRunUsageErrors covers run's exit codes for bad and help arguments;
// none of these cases runs an experiment.
func TestRunUsageErrors(t *testing.T) {
	validIDs := "valid ids: all, " + strings.Join(ids(func(experiment) bool { return true }), ", ") + "\n"
	trace := filepath.Join(t.TempDir(), "trace.json")
	cases := []struct {
		name      string
		args      []string
		code      int
		errSubstr string
	}{
		{"unknown id", []string{"-exp", "table1,nope"}, 2, "unknown experiment id(s): nope\n" + validIDs},
		{"empty id", []string{"-exp", ""}, 2, validIDs},
		{"trace without a traced section", []string{"-trace", trace, "-exp", "table1"}, 2, "-trace requires -exp serving or -exp churn\n"},
		{"faultlog without churn", []string{"-faultlog", "-exp", "serving"}, 2, "-faultlog requires -exp churn\n"},
		{"bad flag", []string{"-nope"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "Usage of reproduce"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit code %d, want %d", code, c.code)
			}
			if !strings.Contains(stderr.String(), c.errSubstr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.errSubstr)
			}
			if stdout.Len() != 0 {
				t.Errorf("rendered output on a usage path: %q", stdout.String())
			}
		})
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("rejected -trace still created %s (stat: %v)", trace, err)
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
