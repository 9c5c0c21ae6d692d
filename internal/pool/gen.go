package pool

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
)

// Stream salts owned by the pool scheduler (see the salt table in
// internal/faults/faults.go).
const (
	saltArrival  uint64 = 0x40000 // open-loop arrival gaps
	saltLifetime uint64 = 0x40001 // job lifetimes
	saltGang     uint64 = 0x40002 // gang-size mixture draws
	saltShape    uint64 = 0x40003 // workload-shape coin
)

// Shape identifies a batch job's application profile: the call rate that
// prices slack under the paper's penalty model, the resident device state
// a migration must move, and the efficiency floor the tier-aware policy
// enforces.
type Shape int

const (
	// LammpsShape is the paper's latency-sensitive profile: a high CUDA
	// call rate, so row/cluster slack is unaffordable; modest resident
	// state per GPU.
	LammpsShape Shape = iota
	// CosmoFlowShape is the paper's throughput profile: an order of
	// magnitude fewer calls per second, so row-scale slack is cheap, but
	// four times the resident bytes to migrate.
	CosmoFlowShape
	numShapes
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case LammpsShape:
		return "lammps"
	case CosmoFlowShape:
		return "cosmoflow"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// CallRate returns the shape's synchronous CUDA calls per second — the
// multiplier on per-call slack in the paper's upper-bound penalty model.
func (s Shape) CallRate() float64 {
	if s == LammpsShape {
		return 2e5
	}
	return 2e4
}

// BytesPerGPU returns the resident device state per gang member — the
// handle-table payload a live migration replays over the fabric.
func (s Shape) BytesPerGPU() int64 {
	if s == LammpsShape {
		return 128 << 20
	}
	return 512 << 20
}

// MinEfficiency returns the efficiency floor the tier-aware policy
// accepts for the shape: the fraction of node-local throughput below
// which the job would rather queue than run.
func (s Shape) MinEfficiency() float64 {
	if s == LammpsShape {
		return 0.90
	}
	return 0.95
}

// EfficiencyAt prices a placement spread: the paper's upper-bound slack
// penalty (call rate × per-call slack of the preset path at that scale)
// converted to a throughput fraction, 1/(1+penalty). Node-local spread is
// exactly 1.
func EfficiencyAt(s Shape, scale fabric.Scale) float64 {
	slack := fabric.SlackForPath(fabric.Preset(scale, 0))
	return 1 / (1 + s.CallRate()*slack.Seconds())
}

// gangSizes and gangCum define the gang-size mixture: mostly small gangs
// with a heavy-enough tail that whole-server holes matter. The mixture
// mean is ~2.56 GPUs.
var (
	gangSizes = []int{1, 2, 4, 8, 16}
	gangCum   = []float64{0.50, 0.75, 0.90, 0.98, 1.0}
)

// gangMean returns the mixture's expected gang size.
func gangMean() float64 {
	m, prev := 0.0, 0.0
	for i, c := range gangCum {
		m += (c - prev) * float64(gangSizes[i])
		prev = c
	}
	return m
}

// Job is one batch tenant: a gang allocation with an arrival, a lifetime,
// and a shape that prices its slack tolerance and migration payload.
type Job struct {
	//cdivet:allow testonly FuzzPoolOps tells jobs apart by it to check that no end timer in flight finds another job in its slot
	ID       int
	Shape    Shape
	Gang     int
	Arrival  sim.Time
	Lifetime sim.Duration
}

// Workload is the seeded open-loop job-churn process driving a run.
type Workload struct {
	// Seed roots every substream the generator draws from.
	Seed int64
	// Window is the arrival horizon; jobs stop arriving here, metrics
	// integrate over exactly this span.
	Window sim.Duration
	// Load is the target fraction of pool GPUs concurrently allocated.
	Load float64
	// Intensity scales churn at constant offered load: 0 freezes the pool
	// after one initial placement (infinite lifetimes, no arrivals); at
	// c > 0 mean lifetime is baseLifetime/c and the arrival rate rises to
	// match, so concurrency holds while turnover scales with c.
	Intensity float64
}

// baseLifetime is the mean job lifetime at churn intensity 1.
const baseLifetime = 200 * sim.Millisecond

// validate rejects a workload the generator cannot size. The negated
// comparisons also catch NaN, which would otherwise size the schedule from
// a NaN count and panic.
func (w Workload) validate() error {
	if !w.Window.Valid() || w.Window == 0 {
		return fmt.Errorf("pool: workload window %v not finite and positive", w.Window)
	}
	if !(w.Load > 0 && w.Load <= 1) {
		return fmt.Errorf("pool: workload load %g outside (0, 1]", w.Load)
	}
	if !(w.Intensity >= 0) || math.IsInf(w.Intensity, 1) {
		return fmt.Errorf("pool: churn intensity %g not finite and non-negative", w.Intensity)
	}
	return nil
}

// jobStream is the job schedule drawn lazily, one job of lookahead at a
// time. Arrival gaps, lifetimes, gang sizes, and shapes come from
// independent salted PCG substreams, so the schedule is byte-identical
// for every worker count, immune to consumers of other streams, and the
// same whenever each job is drawn.
type jobStream struct {
	arr, life, gang, shape *rand.Rand

	window    sim.Duration
	intensity float64
	meanLife  sim.Duration
	// target is the GPU count the warm cohort covers, covered the count
	// its jobs drawn so far hold; rate is the open-loop arrival rate.
	target, covered int
	rate            float64
	t               sim.Time

	// next is the lookahead job, valid while more is set; drawn counts
	// the jobs drawn so far, lookahead included, and numbers them.
	next  Job
	more  bool
	drawn int
}

// newJobStream validates the workload and draws the first job.
func newJobStream(w Workload, totalGPUs int) (jobStream, error) {
	if err := w.validate(); err != nil {
		return jobStream{}, err
	}
	if totalGPUs <= 0 {
		return jobStream{}, fmt.Errorf("pool: generating jobs for %d GPUs", totalGPUs)
	}
	js := jobStream{
		arr:       faults.Substream(w.Seed, saltArrival),
		life:      faults.Substream(w.Seed, saltLifetime),
		gang:      faults.Substream(w.Seed, saltGang),
		shape:     faults.Substream(w.Seed, saltShape),
		window:    w.Window,
		intensity: w.Intensity,
		meanLife:  2 * w.Window, // intensity 0: outlive the window
		// Warm-start cohort: gangs at t=0 until the target load is
		// covered. Exponential lifetimes are memoryless, so the cohort is
		// already the steady state the arrival process sustains.
		target: int(w.Load * float64(totalGPUs)),
	}
	if w.Intensity > 0 {
		js.meanLife = sim.Duration(float64(baseLifetime) / w.Intensity)
		// Open-loop arrivals: rate chosen so arrivals replace departures
		// at the target concurrency (jobs/s = target GPUs / (mean life ×
		// mean gang)).
		js.rate = float64(js.target) / (js.meanLife.Seconds() * gangMean())
	}
	js.advance()
	return js, nil
}

// pop returns the lookahead job and draws the one after it. Call it only
// while more is set.
func (js *jobStream) pop() Job {
	j := js.next
	js.advance()
	return j
}

// advance draws the next job into the lookahead: the warm cohort first,
// then arrivals until the window closes, after which more stays clear.
func (js *jobStream) advance() {
	js.more = false
	if js.covered < js.target {
		g := js.drawGang()
		js.next = Job{ID: js.drawn, Shape: js.drawShape(), Gang: g, Lifetime: js.drawLife()}
		js.covered += g
	} else {
		if js.intensity <= 0 {
			return
		}
		js.t = js.t.Add(sim.Duration(js.arr.ExpFloat64() / js.rate))
		if js.t.Sub(0) >= js.window {
			return
		}
		js.next = Job{ID: js.drawn, Shape: js.drawShape(), Gang: js.drawGang(), Arrival: js.t, Lifetime: js.drawLife()}
	}
	js.drawn++
	js.more = true
}

func (js *jobStream) drawGang() int {
	u := js.gang.Float64()
	for i, c := range gangCum {
		if u < c {
			return gangSizes[i]
		}
	}
	return gangSizes[len(gangSizes)-1]
}

func (js *jobStream) drawShape() Shape {
	if js.shape.Float64() < 0.5 {
		return LammpsShape
	}
	return CosmoFlowShape
}

func (js *jobStream) drawLife() sim.Duration {
	if js.intensity <= 0 {
		return js.meanLife
	}
	return sim.Duration(js.life.ExpFloat64() * float64(js.meanLife))
}
