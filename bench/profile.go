package main

// Per-layer CPU attribution: the traced loop runs under runtime/pprof,
// and `go tool pprof -traces` prints every sampled stack, which fold
// assigns to one bucket of cpuBuckets.

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
)

// profileHz is the sampling rate of the traced loop: 2.5 times the
// runtime/pprof default, so a few seconds of run give over a thousand
// samples. Linux fires CPU-time timers at most once per scheduler tick, so
// a rate above the kernel's HZ (250 on common configurations) yields no
// more samples.
const profileHz = 250

// profile runs fn under the CPU profiler and returns the folded shares
// and the number of samples taken.
func profile(fn func() error) (map[string]float64, float64, error) {
	f, err := os.CreateTemp("", "bench-*.pprof")
	if err != nil {
		return nil, 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// then warns on stderr that the rate was already set.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, 0, err
	}
	err = fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", f.Name()).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	shares, total, err := fold(string(out))
	return shares, total * profileHz, err
}

// fold parses `pprof -traces` output into percentage shares per bucket
// and the total sampled seconds. Each stack goes to the module of its
// innermost repository frame (a repro/internal package, or the
// benchmark's own package main). The engine's share splits by leaf frame:
// a runtime leaf (park and ready, channel operations, newproc, stacks,
// malloc) is sim.runtime, anything else sim.own. A stack without a
// repository frame is gc when it runs a background GC worker and
// gosched otherwise: mcall and schedule switching between sim-proc
// goroutines.
func fold(traces string) (map[string]float64, float64, error) {
	sums := map[string]float64{}
	var total, weight float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			sums[bucket(stack)] += weight
			total += weight
		}
		stack = stack[:0]
	}
	body := false
	for _, line := range strings.Split(traces, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			body = true
			continue
		}
		f := strings.Fields(line)
		if !body || len(f) == 0 {
			continue
		}
		if len(stack) == 0 {
			if len(f) < 2 {
				return nil, 0, fmt.Errorf("fold: malformed sample line %q", line)
			}
			w, err := parseSeconds(f[0])
			if err != nil {
				return nil, 0, err
			}
			weight = w
			f = f[1:]
		}
		stack = append(stack, f[0])
	}
	flush()
	if total <= 0 {
		return nil, 0, fmt.Errorf("fold: no samples")
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 100 * sums[b] / total
	}
	return shares, total, nil
}

// bucket classifies one stack, leaf first.
func bucket(stack []string) string {
	for _, fr := range stack {
		mod, ok := module(fr)
		if !ok {
			continue
		}
		switch {
		case mod == "sim" && isRuntime(stack[0]):
			return "sim.runtime_cpu_pct"
		case mod == "sim":
			return "sim.own_cpu_pct"
		case slices.Contains(cpuBuckets, mod+".cpu_pct"):
			return mod + ".cpu_pct"
		default:
			return "other.cpu_pct"
		}
	}
	for _, fr := range stack {
		switch fr {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc.cpu_pct"
		}
	}
	return "gosched.cpu_pct"
}

// module returns the repository module a frame belongs to.
func module(frame string) (string, bool) {
	if strings.HasPrefix(frame, "main.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(frame, "repro/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

func isRuntime(frame string) bool {
	return strings.HasPrefix(frame, "runtime.") || strings.HasPrefix(frame, "runtime/") ||
		strings.HasPrefix(frame, "internal/runtime/")
}

// parseSeconds reads a pprof duration label such as "10ms" or "1.20s".
func parseSeconds(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("fold: sample weight %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("fold: sample weight %q has no time unit", s)
}
