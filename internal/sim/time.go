// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives "processes" — ordinary Go functions, each run as a
// coroutine (a finished process's coroutine runs the next spawn) — through
// virtual time. At most one process executes at any instant: the
// scheduling loop resumes a process, and the process suspends when it
// blocks on a virtual-time primitive (Sleep, a Signal, a WaitGroup, ...).
// This SimPy-style handoff keeps simulations fully
// deterministic regardless of GOMAXPROCS while letting model code read as
// straight-line imperative Go.
//
// All other substrates in this repository (the GPU device model, the CUDA
// API layer, the MPI runtime, the workload mini-apps) are built on this
// package.
package sim

import (
	"fmt"
	"math"
	"strconv"
)

// Time is an absolute virtual timestamp in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
//
// Durations are plain float64 seconds rather than time.Duration because the
// cost models routinely produce sub-nanosecond quantities (for example a
// per-element DMA cost) that would truncate to zero in integer nanoseconds.
type Duration float64

// Convenient duration units.
const (
	Nanosecond  Duration = 1e-9
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
)

// Millis returns d expressed in milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e-3 }

// Seconds returns d expressed in seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Valid reports whether d is a usable span: non-negative and finite. NaN
// fails the comparison, so it is rejected with the negatives.
func (d Duration) Valid() bool { return d >= 0 && !math.IsInf(float64(d), 1) }

// String formats the duration with an SI-scaled unit, e.g. "12.3µs".
// strconv.FormatFloat('g') produces the same bytes as fmt's %g without the
// format-string parse — String sits on trace/report paths that run once per
// recorded kernel.
func (d Duration) String() string {
	abs := math.Abs(float64(d))
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-6:
		return strconv.FormatFloat(float64(d)/1e-9, 'g', 3, 64) + "ns"
	case abs < 1e-3:
		return strconv.FormatFloat(float64(d)/1e-6, 'g', 3, 64) + "µs"
	case abs < 1:
		return strconv.FormatFloat(float64(d)/1e-3, 'g', 3, 64) + "ms"
	default:
		return strconv.FormatFloat(float64(d), 'g', 4, 64) + "s"
	}
}

// Sub returns the duration t - u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns the time t + d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// String formats the timestamp in seconds.
func (t Time) String() string { return fmt.Sprintf("t=%.9fs", float64(t)) }
