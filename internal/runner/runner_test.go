package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapOrderedResults: results land in input order for every worker
// count, regardless of completion order.
func TestMapOrderedResults(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 2, 7, 16, 200} {
		got, err := Map(workers, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestMapSerialParallelIdentical: the parallel path produces byte-identical
// merged output to the serial path.
func TestMapSerialParallelIdentical(t *testing.T) {
	run := func(workers int) string {
		rows, err := Map(workers, 25, func(i int) (string, error) {
			return fmt.Sprintf("row %02d = %d\n", i, i*7%13), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(rows, "")
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		if p := run(workers); p != serial {
			t.Fatalf("workers=%d diverged from serial:\n%s\nvs\n%s", workers, p, serial)
		}
	}
}

// TestMapLowestIndexError: whichever goroutine finishes first, the error
// returned is the lowest-index one.
func TestMapLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for trial := 0; trial < 20; trial++ {
		_, err := Map(8, 16, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 12:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, errLow)
		}
	}
}

// TestMapSerialStopsAtFirstError: workers == 1 recovers the exact serial
// semantics — points after the failing one never run.
func TestMapSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	_, err := Map(1, 10, func(i int) (int, error) {
		ran = append(ran, i)
		if i == 4 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 5 {
		t.Fatalf("serial path ran %v after the error", ran)
	}
}

// TestMapBoundsWorkers: concurrent point executions never exceed the
// requested worker count.
func TestMapBoundsWorkers(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	_, err := Map(workers, 50, func(i int) (int, error) {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		defer inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestMapPanicPropagates: a panicking point surfaces on the caller's
// goroutine with the point's stack, for both serial and parallel pools.
func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if workers > 1 && !strings.Contains(fmt.Sprint(r), "kaboom") {
					t.Fatalf("workers=%d: panic %v lost the point's value", workers, r)
				}
			}()
			_, _ = Map(workers, 8, func(i int) (int, error) {
				if i == 5 {
					panic("kaboom")
				}
				return i, nil
			})
		}()
	}
}

// TestMapEdgeCases: zero points, negative counts, more workers than work.
func TestMapEdgeCases(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return i, nil })
	if err != nil || got != nil {
		t.Fatalf("n=0: %v, %v", got, err)
	}
	if _, err := Map(4, -1, func(i int) (int, error) { return i, nil }); err == nil {
		t.Fatal("negative count accepted")
	}
	one, err := Map(64, 1, func(i int) (int, error) { return 42, nil })
	if err != nil || len(one) != 1 || one[0] != 42 {
		t.Fatalf("n=1: %v, %v", one, err)
	}
}

// TestJobs: the knob normalization contract Map and the -j flag share.
func TestJobs(t *testing.T) {
	if Jobs(3) != 3 {
		t.Fatal("positive values must pass through")
	}
	if Jobs(0) < 1 || Jobs(-2) < 1 {
		t.Fatal("non-positive values must select at least one worker")
	}
}
