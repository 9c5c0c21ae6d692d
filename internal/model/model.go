// Package model implements the paper's slack-penalty prediction model:
//
//   - Equation 3 maps an application's kernel durations and transfer sizes
//     onto the proxy's tested matrix sizes ("matrix-size equivalents") and
//     forms the element-weighted slack penalty, rounded down (lower bound)
//     and up (upper bound);
//   - Equation 2 combines the kernel and memory penalties, weighted by the
//     fraction of application runtime spent in each.
//
// The inputs are a response Surface built from proxy sweeps (§IV-B) and an
// AppProfile extracted from an NSys-style trace (§IV-C); the output is the
// lower/upper total slack penalty of Table IV.
//
// Equation 1, which removes the directly injected delay from a measured
// runtime to isolate the starvation residual, lives in package slack;
// AvailabilityAdjustedPenalty applies it to runs under faults.
package model

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/gpu"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/slack"
	"repro/internal/stats"
	"repro/internal/trace"
)

// AvailabilityAdjustedPenalty extends Equation 1 to faulty runs: it
// removes only the nominal per-call slack (calls × perCall) from the
// measured runtime and expresses the remainder as a fractional penalty
// over the fault-free baseline. Timeout waits, retries, backoff and
// failover re-uploads are deliberately NOT subtracted — they are the
// availability cost a real deployment would pay, so they stay inside the
// reported penalty. At zero fault intensity the extra terms vanish and the
// result reduces to the paper's fault-free Equation-1 penalty exactly.
//
// The result is in [0, +Inf]: 0 means the corrected runtime was at or
// below the baseline (the penalty is clamped, never negative), 1 means
// the run took twice the baseline, and a full outage — a run that never
// finished, reported as an effectively unbounded measured time — drives
// it arbitrarily large. A non-positive baseline (zero availability: no
// fault-free run ever completed to calibrate against) yields +Inf rather
// than a divide-by-zero or a panic, so sweep code can aggregate the cell
// instead of crashing.
func AvailabilityAdjustedPenalty(measured sim.Duration, calls int64, perCall sim.Duration, baseline sim.Duration) float64 {
	if baseline <= 0 {
		return math.Inf(1)
	}
	return slack.ClampPenalty(slack.Penalty(measured, baseline, calls, perCall))
}

// Surface is the proxy's slack response: for every tested (matrix size,
// thread count), penalty as a function of slack, interpolated in log-slack
// space, plus the per-size baseline kernel time and transfer size used to
// bin applications onto matrix-size equivalents (Table II).
type Surface struct {
	sizes       []int // ascending
	threads     []int // ascending
	kernelTimes map[int]sim.Duration
	curves      map[[2]int]*stats.Interpolator
}

// BuildSurface assembles a Surface from proxy sweep points. Every point's
// size must carry its baseline kernel time in its Result (Sweep provides
// this). Zero-slack points are added implicitly (penalty 0 at slack → 0 is
// the interpolators' left clamp).
func BuildSurface(points []proxy.SweepPoint) (*Surface, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("model: no sweep points")
	}
	s := &Surface{
		kernelTimes: map[int]sim.Duration{},
		curves:      map[[2]int]*stats.Interpolator{},
	}
	type seriesKey = [2]int
	xs := map[seriesKey][]float64{}
	ys := map[seriesKey][]float64{}
	sizeSet := map[int]bool{}
	threadSet := map[int]bool{}
	for _, pt := range points {
		if pt.Slack <= 0 {
			return nil, fmt.Errorf("model: sweep point with non-positive slack %v", pt.Slack)
		}
		k := seriesKey{pt.MatrixSize, pt.Threads}
		xs[k] = append(xs[k], float64(pt.Slack))
		ys[k] = append(ys[k], pt.Penalty)
		s.kernelTimes[pt.MatrixSize] = pt.Result.KernelTime
		sizeSet[pt.MatrixSize] = true
		threadSet[pt.Threads] = true
	}
	for k := range xs {
		in, err := stats.NewInterpolator(xs[k], ys[k], true)
		if err != nil {
			return nil, fmt.Errorf("model: building curve for size %d × %d threads: %w", k[0], k[1], err)
		}
		s.curves[k] = in
	}
	for size := range sizeSet {
		s.sizes = append(s.sizes, size)
	}
	sort.Ints(s.sizes)
	for th := range threadSet {
		s.threads = append(s.threads, th)
	}
	sort.Ints(s.threads)
	return s, nil
}

// Penalty evaluates the response surface at (size, threads, slack). The
// thread count snaps down to the nearest tested value (fewer submitters
// tolerate less slack, so rounding down is the pessimistic choice); a size
// missing at that thread count falls back to the largest tested thread
// count below it for that size.
func (s *Surface) Penalty(size, threads int, sl sim.Duration) (float64, error) {
	if _, ok := s.kernelTimes[size]; !ok {
		return 0, fmt.Errorf("model: size %d not in surface", size)
	}
	// Candidate thread counts at or below the request, descending, then
	// anything above as a last resort.
	var candidates []int
	for i := len(s.threads) - 1; i >= 0; i-- {
		if s.threads[i] <= threads {
			candidates = append(candidates, s.threads[i])
		}
	}
	for _, th := range s.threads {
		if th > threads {
			candidates = append(candidates, th)
		}
	}
	for _, th := range candidates {
		if in, ok := s.curves[[2]int{size, th}]; ok {
			return slack.ClampPenalty(in.At(float64(sl))), nil
		}
	}
	return 0, fmt.Errorf("model: no curve for size %d at any thread count", size)
}

// Binned is the outcome of mapping application samples onto matrix-size
// equivalents: per-size element counts with the ambiguity between two
// bracketing sizes resolved both ways (Table III's structure).
//
// Rounding a sample down to the smaller matrix size yields the *higher*
// penalty (small kernels tolerate less slack), so RoundedDown feeds the
// upper (pessimistic) bound and RoundedUp the lower bound — the paper's
// "rounded up or down respectively".
type Binned struct {
	// RoundedDown counts each sample at the bracketing size below it;
	// RoundedUp at the size above.
	RoundedDown map[int]int
	RoundedUp   map[int]int
	Total       int
}

// EquivalenceTolerance is the relative distance within which a sample is
// treated as an exact matrix-size equivalent rather than an ambiguous
// in-between value. In-run kernel durations wander around the proxy's
// preliminary timings (warm-up, clock state), so a hard threshold would
// push exact matches into the bracketing ambiguity and break the model's
// self-validation (§IV-D); the tested sizes sit factors of ~30 apart, so a
// 25 % band is unambiguous.
const EquivalenceTolerance = 0.25

// binBy places each sample between bracketing thresholds: thresholds[i] is
// the characteristic value of sizes[i] (both ascending).
func binBy(samples []float64, sizes []int, thresholds []float64) Binned {
	b := Binned{RoundedDown: map[int]int{}, RoundedUp: map[int]int{}}
	n := len(sizes)
	for _, v := range samples {
		b.Total++
		// Exact equivalent (within tolerance): no rounding ambiguity.
		exact := -1
		for i, th := range thresholds {
			if d := v - th; d <= EquivalenceTolerance*th && d >= -EquivalenceTolerance*th {
				exact = i
				break
			}
		}
		switch {
		case exact >= 0:
			b.RoundedDown[sizes[exact]]++
			b.RoundedUp[sizes[exact]]++
		case v <= thresholds[0]:
			b.RoundedDown[sizes[0]]++
			b.RoundedUp[sizes[0]]++
		case v >= thresholds[n-1]:
			b.RoundedDown[sizes[n-1]]++
			b.RoundedUp[sizes[n-1]]++
		default:
			i := sort.SearchFloat64s(thresholds, v)
			// thresholds[i-1] < v < thresholds[i]
			b.RoundedDown[sizes[i-1]]++
			b.RoundedUp[sizes[i]]++
		}
	}
	return b
}

// BinKernelDurations maps kernel durations (seconds) onto matrix-size
// equivalents by comparing against the proxy's per-size kernel times.
func (s *Surface) BinKernelDurations(durations []float64) Binned {
	th := make([]float64, len(s.sizes))
	for i, size := range s.sizes {
		th[i] = float64(s.kernelTimes[size])
	}
	return binBy(durations, s.sizes, th)
}

// BinTransferSizes maps transfer sizes (bytes) onto matrix-size
// equivalents by matrix footprint (Table III's MiB bins: 1, 16, 256, 4096
// for sizes 2^9..2^15).
func (s *Surface) BinTransferSizes(bytes []float64) Binned {
	th := make([]float64, len(s.sizes))
	for i, size := range s.sizes {
		th[i] = float64(gpu.MatrixBytes(size))
	}
	return binBy(bytes, s.sizes, th)
}

// spComponent applies Equation 3 to one Binned mapping: the element-
// weighted mean of per-size penalties. Sizes rounded up give the lower
// bound, sizes rounded down the (pessimistic) upper bound.
// Both sums run over sorted sizes: float addition is not associative, so
// summing in map order would make the last bits of every published penalty
// depend on Go's randomized iteration order (cdivet's taint rule traces
// exactly this value into the result tables).
func (s *Surface) spComponent(b Binned, threads int, slack sim.Duration) (lower, upper float64, err error) {
	if b.Total == 0 {
		return 0, 0, nil
	}
	for _, size := range sortedSizes(b.RoundedUp) {
		p, err := s.Penalty(size, threads, slack)
		if err != nil {
			return 0, 0, err
		}
		lower += p * float64(b.RoundedUp[size]) / float64(b.Total)
	}
	for _, size := range sortedSizes(b.RoundedDown) {
		p, err := s.Penalty(size, threads, slack)
		if err != nil {
			return 0, 0, err
		}
		upper += p * float64(b.RoundedDown[size]) / float64(b.Total)
	}
	return lower, upper, nil
}

// sortedSizes returns the bin sizes of a Binned mapping in ascending order.
func sortedSizes(m map[int]int) []int {
	sizes := make([]int, 0, len(m))
	for size := range m {
		sizes = append(sizes, size)
	}
	sort.Ints(sizes)
	return sizes
}

// AppProfile is the per-application characterization extracted from a
// trace (§IV-C): what the model needs to evaluate Equations 2 and 3.
type AppProfile struct {
	Label string
	// KernelFraction and MemcpyFraction are the %Runtime terms of Eq. 2.
	KernelFraction float64
	MemcpyFraction float64
	// KernelDurations in seconds and TransferBytes in bytes feed Eq. 3.
	KernelDurations []float64
	TransferBytes   []float64
	// Parallelism is the effective number of parallel kernel submitters:
	// 8 for the profiled LAMMPS configuration (8 ranks), 4 for CosmoFlow
	// (launch takes ~1/7 of each kernel sequence; the paper adopts a
	// pessimistic equivalent parallelism of 4).
	Parallelism int
}

// ProfileFromTrace builds an AppProfile from a recording.
func ProfileFromTrace(tr *trace.Trace, parallelism int) AppProfile {
	if parallelism < 1 {
		parallelism = 1
	}
	return AppProfile{
		Label:           tr.Label,
		KernelFraction:  tr.KernelFraction(),
		MemcpyFraction:  tr.MemcpyFraction(),
		KernelDurations: tr.KernelDurations(),
		TransferBytes:   tr.MemcpySizes(),
		Parallelism:     parallelism,
	}
}

// Prediction is one Table IV entry: the lower and upper total slack
// penalty for an application at one slack value.
type Prediction struct {
	Slack sim.Duration
	// Lower and Upper bound the total penalty (fraction of runtime).
	Lower, Upper float64
}

// Predict evaluates Equations 2 and 3 for an application at one slack
// value.
func (s *Surface) Predict(app AppProfile, slack sim.Duration) (Prediction, error) {
	if slack < 0 {
		return Prediction{}, fmt.Errorf("model: negative slack %v", slack)
	}
	kb := s.BinKernelDurations(app.KernelDurations)
	mb := s.BinTransferSizes(app.TransferBytes)
	kl, ku, err := s.spComponent(kb, app.Parallelism, slack)
	if err != nil {
		return Prediction{}, err
	}
	ml, mu, err := s.spComponent(mb, app.Parallelism, slack)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{
		Slack: slack,
		Lower: app.KernelFraction*kl + app.MemcpyFraction*ml,
		Upper: app.KernelFraction*ku + app.MemcpyFraction*mu,
	}, nil
}

// PredictSweep evaluates Predict over several slack values (a Table IV
// row set).
func (s *Surface) PredictSweep(app AppProfile, slacks []sim.Duration) ([]Prediction, error) {
	out := make([]Prediction, 0, len(slacks))
	for _, sl := range slacks {
		p, err := s.Predict(app, sl)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// PaperSlacks returns the slack values Table IV reports.
func PaperSlacks() []sim.Duration {
	return []sim.Duration{
		1 * sim.Microsecond,
		10 * sim.Microsecond,
		100 * sim.Microsecond,
		1 * sim.Millisecond,
		10 * sim.Millisecond,
	}
}
