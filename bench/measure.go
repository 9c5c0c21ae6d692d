package main

// One process measures one workload: an untimed warm-up iteration, then a
// closed loop (the next iteration starts when the previous one returns)
// for a fixed count or a time box. A seed expands to a fixed set of
// inputs, and the loop cycles through them, so a run's numbers average
// over many inputs and hardly depend on which seed drew them. A traced
// run spends a third of its budget on a loop with the counting hooks
// attached and the rest on the same loop under the CPU profiler.

import (
	"embed"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

//go:embed testdata/*.golden
var goldens embed.FS

// minIters is the fewest iterations a time-boxed loop measures.
const minIters = 3

// budget bounds one measured loop: iters iterations, or, when iters is
// zero, seconds of host time and at least min iterations.
type budget struct {
	seconds float64
	iters   int
	min     int
}

// share returns the part num/den of the budget; a fixed count keeps at
// least one iteration.
func (b budget) share(num, den int) budget {
	s := budget{seconds: b.seconds * float64(num) / float64(den), min: b.min}
	if b.iters > 0 {
		s.iters = max(1, b.iters*num/den)
	}
	return s
}

func (b budget) done(n int, elapsed time.Duration) bool {
	if b.iters > 0 {
		return n >= b.iters
	}
	return n >= b.min && elapsed.Seconds() >= b.seconds
}

// inputSeed is the seed of input j of workload seed s. At s=1, input 0
// has seed 1, whose result the golden holds.
func inputSeed(s int64, inputs, j int) int64 { return (s-1)*int64(inputs) + int64(j) + 1 }

// record is one process's measurement of one workload: per-iteration
// samples of the plain loop, whose iteration n ran input n mod inputs,
// and, for a traced run, the per-layer values. The suite run pools
// records across rounds.
type record struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	RunMs     []float64          `json:"run_ms"`
	SetupS    []float64          `json:"setup_s"`
	AllocMB   []float64          `json:"alloc_mb"`
	RSSMB     []float64          `json:"rss_mb"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

// meter runs and checks iterations of one workload.
type meter struct {
	w    workload
	seed int64
	log  io.Writer
	// want is input 0's golden result; empty when the seed has none.
	want string
	// first holds each input's first result, by input seed.
	first map[int64]string

	attempted, failed int
	allocs            []metrics.Sample
}

// loop holds one measured loop's samples and totals.
type loop struct {
	runMs, setupS, allocMB, rssMB, poolStartMs []float64
	// hostS is the loop's measured host time; the totals below sum the
	// loop's iterations, and first holds input 0's counts.
	hostS                             float64
	simS, apiCalls, completed, placed float64
	first                             counts
}

// measure runs workload w at seed for budget b in this process. An
// untraced run measures at least one iteration of every input.
func measure(w workload, seed int64, b budget, traced bool, log io.Writer) (record, error) {
	runtime.GOMAXPROCS(1)
	m := &meter{w: w, seed: seed, log: log, first: map[int64]string{},
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	if seed == 1 {
		g, err := goldens.ReadFile("testdata/" + w.name + ".golden")
		if err != nil {
			return record{}, fmt.Errorf("%s: seed 1 has no golden: %w", w.name, err)
		}
		m.want = string(g)
	}
	it, err := w.run(inputSeed(seed, w.inputs, 0), nil)
	m.check(0, it, err)

	var hk *hooks
	plainB := b
	plainB.min = max(minIters, w.inputs)
	if traced {
		b.min = minIters
		hk, plainB = &hooks{}, b.share(1, 3)
	}
	plain, err := m.loop(plainB, hk)
	if err != nil {
		return record{}, err
	}
	rec := record{Workload: w.name, RunMs: plain.runMs, SetupS: plain.setupS, AllocMB: plain.allocMB, RSSMB: plain.rssMB}
	if traced {
		var prof loop
		shares, samples, err := profile(func() (err error) {
			prof, err = m.loop(b.share(2, 3), hk)
			return err
		})
		if err != nil {
			return record{}, err
		}
		rec.Layer = layerValues(shares, samples, plain, prof)
	}
	rec.Attempted, rec.Failed = m.attempted, m.failed
	return rec, nil
}

// loop runs iterations, cycling through the seed's inputs from input 0,
// until the budget is spent. A collection after each iteration starts the
// next from a collected heap and makes the allocation counter exact; the
// peak resident set is reset before each iteration.
func (m *meter) loop(b budget, hk *hooks) (loop, error) {
	var l loop
	runtime.GC()
	a0 := m.heapAllocs()
	start := time.Now()
	for n := 0; !b.done(n, time.Since(start)); n++ {
		j := n % m.w.inputs
		if hk != nil {
			*hk = hooks{}
		}
		if err := resetPeakRSS(); err != nil {
			return l, err
		}
		t0 := time.Now()
		it, err := m.w.run(inputSeed(m.seed, m.w.inputs, j), hk)
		elapsed := time.Since(t0)
		rss, rssErr := peakRSSMB()
		if rssErr != nil {
			return l, rssErr
		}
		runtime.GC()
		a1 := m.heapAllocs()
		if hk != nil {
			it.c.apiCalls += hk.apiCalls
			it.c.transportCalls, it.c.transportWait = hk.transportCalls, hk.transportWait
		}
		m.check(j, it, err)
		l.runMs = append(l.runMs, float64(elapsed)/1e6)
		l.setupS = append(l.setupS, it.setup.Seconds())
		l.allocMB = append(l.allocMB, float64(a1-a0)/(1<<20))
		l.rssMB = append(l.rssMB, rss)
		a0 = a1
		for _, d := range it.poolStart {
			l.poolStartMs = append(l.poolStartMs, float64(d)/1e6)
		}
		l.hostS += elapsed.Seconds()
		l.simS += it.c.simS
		l.apiCalls += float64(it.c.apiCalls)
		l.completed += float64(it.c.completed)
		l.placed += float64(it.c.placed)
		if n == 0 {
			l.first = it.c
		}
	}
	return l, nil
}

// check counts one iteration of input j and fails it on an error, on a
// result that differs from the golden, or on one that differs from the
// input's first result.
func (m *meter) check(j int, it iteration, err error) {
	m.attempted++
	s := inputSeed(m.seed, m.w.inputs, j)
	first, seen := m.first[s]
	switch {
	case err != nil:
	case j == 0 && m.want != "" && it.out != m.want:
		err = fmt.Errorf("result differs from testdata/%s.golden", m.w.name)
	case !seen:
		m.first[s] = it.out
	case it.out != first:
		err = fmt.Errorf("result differs from the first run of the same input")
	}
	if err != nil {
		m.failed++
		fmt.Fprintf(m.log, "bench: %s input seed %d (iteration %d): %v\n", m.w.name, s, m.attempted, err)
	}
}

func (m *meter) heapAllocs() uint64 {
	metrics.Read(m.allocs)
	return m.allocs[0].Value.Uint64()
}

// layerValues derives the per-layer metrics of a traced run. Modeled
// counts are input 0's; rates are totals over the plain loop per second
// of its host time.
func layerValues(shares map[string]float64, samples float64, plain, prof loop) map[string]float64 {
	c, hostS := plain.first, plain.hostS
	v := map[string]float64{
		"sim.sim_s_per_host_s": plain.simS / hostS,

		"cuda.api_calls":        float64(c.apiCalls),
		"cuda.calls_per_host_s": plain.apiCalls / hostS,

		"remoting.calls":        float64(c.remCalls),
		"remoting.retries":      float64(c.retries),
		"remoting.timeouts":     float64(c.timeouts),
		"remoting.migrations":   float64(c.migrations),
		"remoting.readmissions": float64(c.readmissions),
		"remoting.useful_ratio": ratio(float64(c.remCalls), float64(c.remCalls+c.retries)),

		"serve.completed_per_host_s":  plain.completed / hostS,
		"serve.transport_calls":       float64(c.transportCalls),
		"serve.transport_wait_sim_ms": c.transportWait.Millis(),
		"serve.p99_sim_ms":            c.p99.Millis(),
		"serve.shed":                  float64(c.shed),
		"serve.exhausted_cells":       float64(c.exhausted),

		"health.beats":            float64(c.beats),
		"health.dropped_beats":    float64(c.droppedBeats),
		"health.suspicions":       float64(c.suspicions),
		"health.false_suspicions": float64(c.falseSuspicions),

		"pool.placed":                float64(c.placed),
		"pool.migrations":            float64(c.poolMigrations),
		"pool.peak_concurrent":       float64(c.peakConcurrent),
		"pool.placements_per_host_s": plain.placed / hostS,
		"pool.start_ms":              finite(stats.Median(plain.poolStartMs)),

		"host.trace_overhead_pct": 100 * (stats.Percentile(prof.runMs, 10)/stats.Percentile(plain.runMs, 10) - 1),
		"host.profile_samples":    samples,
	}
	for _, b := range cpuBuckets {
		v[b] = shares[b]
	}
	return v
}

// summarize pools records of one workload into named metrics. Timings
// take the 10th percentile, because host contention only ever slows an
// iteration down; allocation, deterministic per input, takes the mean
// over inputs. spread is the (max-min)/median of the per-record values,
// the run-to-run spread of the rounds; it is zero for a single record.
func summarize(recs []record) map[string]metricValue {
	var run, setup, rss, allocs, runP10, setupP10, rssMed []float64
	for _, r := range recs {
		w, _ := workloadByName(r.Workload)
		run = append(run, r.RunMs...)
		setup = append(setup, r.SetupS...)
		rss = append(rss, r.RSSMB...)
		allocs = append(allocs, meanPerInput(r.AllocMB, w.inputs))
		runP10 = append(runP10, stats.Percentile(r.RunMs, 10))
		setupP10 = append(setupP10, stats.Percentile(r.SetupS, 10))
		rssMed = append(rssMed, stats.Median(r.RSSMB))
	}
	out := map[string]metricValue{}
	put := func(name string, v float64, n int, spread float64) {
		m, _ := metricByName(name)
		out[name] = metricValue{Value: finite(v), Unit: m.unit, N: n, Spread: finite(spread)}
	}
	put("run_ms_p10", stats.Percentile(run, 10), len(run), spreadOf(runP10))
	put("peak_rss_mb", stats.Median(rss), len(rss), spreadOf(rssMed))
	put("alloc_mb_per_run", stats.Median(allocs), len(run), spreadOf(allocs))
	put("setup_s", stats.Percentile(setup, 10), len(setup), spreadOf(setupP10))
	put("host.run_ms_p50", stats.Median(run), len(run), 0)
	put("host.run_ms_p90", stats.Percentile(run, 90), len(run), 0)
	put("host.run_ms_iqr", stats.Percentile(run, 75)-stats.Percentile(run, 25), len(run), 0)
	put("host.samples", float64(len(run)), len(recs), 0)
	for _, r := range recs {
		for name, v := range r.Layer {
			put(name, v, 1, 0)
		}
	}
	return out
}

// meanPerInput averages, over the inputs the samples cover, each input's
// median sample; sample n belongs to input n mod inputs.
func meanPerInput(xs []float64, inputs int) float64 {
	var sum float64
	k := min(inputs, len(xs))
	for j := 0; j < k; j++ {
		var ys []float64
		for n := j; n < len(xs); n += inputs {
			ys = append(ys, xs[n])
		}
		sum += stats.Median(ys)
	}
	return ratio(sum, float64(k))
}

func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return ratio(slices.Max(xs)-slices.Min(xs), stats.Median(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS resets the process's peak resident set to its current
// resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// finite replaces a NaN or infinite value, which JSON cannot carry, by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
