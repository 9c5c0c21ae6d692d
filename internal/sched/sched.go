// Package sched simulates batch scheduling on composable and traditional
// machines: jobs arrive over time, wait for resources, run, and release.
// It quantifies the system-level claims the paper's introduction makes for
// CDI — higher job throughput, shorter time to solution, and less energy
// burned by trapped idle GPUs — on the same job mix and identical total
// hardware.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/compose"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
)

// workloadSalt is this package's substream salt for WorkloadMix draws
// (see the salt table in internal/faults/faults.go).
const workloadSalt uint64 = 0x10020

// composeRowPath returns the row-scale fabric path CDI machines use.
func composeRowPath() fabric.Path { return fabric.Preset(fabric.RowScale, 0) }

// Job is one batch submission.
type Job struct {
	Name string
	// Arrival is when the job enters the queue.
	Arrival sim.Time
	// Duration is the service time once started.
	Duration sim.Duration
	// Req is the resource ask.
	Req compose.Request
}

// validate rejects a job the simulation cannot run. The negated
// comparisons also catch NaN, which would otherwise panic inside a sim
// process, and Inf would yield an infinite makespan and NaN energy.
// Alloc books under Req.Name, so Name must match it.
func (j Job) validate() error {
	if !(j.Duration > 0) || math.IsInf(float64(j.Duration), 1) {
		return fmt.Errorf("sched: job %q duration %v", j.Name, j.Duration)
	}
	if !(j.Arrival >= 0) || math.IsInf(float64(j.Arrival), 1) {
		return fmt.Errorf("sched: job %q arrival %v", j.Name, j.Arrival)
	}
	if j.Name != j.Req.Name {
		return fmt.Errorf("sched: job %q has request name %q", j.Name, j.Req.Name)
	}
	if err := j.Req.Validate(); err != nil {
		return fmt.Errorf("sched: job %q: %w", j.Name, err)
	}
	return nil
}

// JobStats reports one job's fate.
type JobStats struct {
	Job
	Started sim.Time
	// Wait is Started − Arrival.
	Wait sim.Duration
	// Rejected is set when the job can never fit on the machine.
	Rejected bool
}

// Result summarizes a schedule.
type Result struct {
	Jobs     []JobStats
	Makespan sim.Duration
	MeanWait sim.Duration
	MaxWait  sim.Duration
	// GPUEnergyWh integrates GPU power (busy + idle-but-powered) over the
	// makespan.
	GPUEnergyWh float64
}

// Policy selects queue discipline.
type Policy int

const (
	// FCFS starts jobs strictly in queue order; the head blocks the rest.
	FCFS Policy = iota
	// Backfill lets later jobs start when the head does not fit —
	// conservative backfilling without reservations.
	Backfill
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case Backfill:
		return "backfill"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// afterRun, when set, sees Run's environment once it has drained. Tests
// read the engine's counts through it; it is nil otherwise.
var afterRun func(*sim.Env)

// Run schedules jobs on the system under the policy and returns the
// outcome. The system must be freshly built (no live allocations). A
// policy other than FCFS or Backfill is an error.
func Run(system *compose.System, jobs []Job, policy Policy) (Result, error) {
	if policy != FCFS && policy != Backfill {
		return Result{}, fmt.Errorf("sched: unknown policy %v", policy)
	}
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if err := j.validate(); err != nil {
			return Result{}, err
		}
		if seen[j.Name] {
			return Result{}, fmt.Errorf("sched: duplicate job %q", j.Name)
		}
		seen[j.Name] = true
	}
	env := sim.NewEnv()
	defer env.Close()

	// Sort a copy by arrival for deterministic queue order.
	pending := append([]Job(nil), jobs...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })

	stats := map[string]*JobStats{}
	var queue []*JobStats
	poke := sim.NewSignal(env)
	running := 0
	arrivalsLeft := len(pending)

	var energyWs float64 // watt-seconds
	lastPowerAt := sim.Time(0)
	accrue := func(now sim.Time) {
		energyWs += system.GPUPowerDraw() * float64(now.Sub(lastPowerAt))
		lastPowerAt = now
	}

	// rejectable reports whether the request could ever fit on an empty
	// machine (otherwise it would wedge the FCFS queue forever).
	fitsEmpty := func(r compose.Request) bool {
		if r.Cores > system.TotalCores() || r.GPUs > system.TotalGPUs() {
			return false
		}
		return true
	}

	tryStart := func(p *sim.Proc) {
		for i := 0; i < len(queue); {
			js := queue[i]
			// Close the current power interval before the draw changes.
			accrue(p.Now())
			_, err := system.Alloc(js.Req)
			if err != nil {
				if policy == FCFS {
					break
				}
				i++
				continue
			}
			js.Started = p.Now()
			js.Wait = js.Started.Sub(js.Arrival)
			queue = append(queue[:i], queue[i+1:]...)
			running++
			job := js
			// The job timer is two callbacks, a start at now and then the
			// duration, so its end event keeps its (time, seq) slot among
			// events scheduled for the same instant.
			env.After(0, func() {
				env.After(job.Duration, func() {
					accrue(env.Now())
					if err := system.Release(job.Name); err != nil {
						panic(err)
					}
					running--
					poke.Fire()
				})
			})
		}
	}

	for _, j := range pending {
		j := j
		env.After(sim.Duration(j.Arrival), func() {
			js := &JobStats{Job: j}
			stats[j.Name] = js
			arrivalsLeft--
			if !fitsEmpty(j.Req) {
				js.Rejected = true
				poke.Fire()
				return
			}
			queue = append(queue, js)
			poke.Fire()
		})
	}

	env.Spawn("scheduler", func(p *sim.Proc) {
		for arrivalsLeft > 0 || len(queue) > 0 || running > 0 {
			tryStart(p)
			if arrivalsLeft == 0 && len(queue) == 0 && running == 0 {
				break
			}
			poke.Wait(p)
		}
	})

	end := env.Run()
	if blocked := env.Blocked(); len(blocked) > 0 {
		return Result{}, fmt.Errorf("sched: deadlock, blocked: %v", blocked)
	}
	if afterRun != nil {
		afterRun(env)
	}
	accrueFinal := system.GPUPowerDraw() * float64(end.Sub(lastPowerAt))
	energyWs += accrueFinal

	res := Result{Makespan: end.Sub(0), GPUEnergyWh: energyWs / 3600}
	var totalWait sim.Duration
	started := 0
	for _, j := range jobs {
		js := stats[j.Name]
		if js == nil {
			return Result{}, fmt.Errorf("sched: job %q lost", j.Name)
		}
		res.Jobs = append(res.Jobs, *js)
		if js.Rejected {
			continue
		}
		started++
		totalWait += js.Wait
		if js.Wait > res.MaxWait {
			res.MaxWait = js.Wait
		}
	}
	if started > 0 {
		res.MeanWait = totalWait / sim.Duration(started)
	}
	return res, nil
}

// WorkloadMix synthesizes a deterministic job stream resembling the
// paper's framing: CPU-dominant jobs that would trap GPUs, GPU-dominant
// jobs that starve for them, and balanced jobs. A non-positive job count
// is an error.
func WorkloadMix(n int, coresPerNode int, seed int64) ([]Job, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: non-positive job count %d", n)
	}
	if coresPerNode <= 0 {
		return nil, fmt.Errorf("sched: non-positive cores per node %d", coresPerNode)
	}
	rng := faults.Substream(seed, workloadSalt)
	var jobs []Job
	var t sim.Time
	for i := 0; i < n; i++ {
		t = t.Add(sim.Duration(rng.Float64()*20) * sim.Minute / 20)
		dur := sim.Duration(10+rng.Float64()*50) * sim.Minute / 10
		var req compose.Request
		switch i % 3 {
		case 0: // CPU-dominant (LAMMPS-like): many cores, 1 GPU
			req = compose.Request{Cores: coresPerNode * (1 + rng.IntN(3)), GPUs: 1}
		case 1: // GPU-dominant (CosmoFlow-like): few cores, several GPUs
			req = compose.Request{Cores: 2 + rng.IntN(4), GPUs: 2 + rng.IntN(6)}
		default: // balanced
			req = compose.Request{Cores: coresPerNode, GPUs: 1 + rng.IntN(2)}
		}
		req.Name = fmt.Sprintf("job%03d", i)
		req.FlexCores = true
		jobs = append(jobs, Job{Name: req.Name, Arrival: t, Duration: dur, Req: req})
	}
	return jobs, nil
}

// Comparison contrasts the same workload on both architectures.
type Comparison struct {
	Traditional Result
	CDI         Result
}

// Compare schedules the mix on a traditional machine (nodes ×
// coresPerNode, gpusPerNode) and an equal-hardware CDI machine.
func Compare(jobs []Job, nodes, coresPerNode, gpusPerNode int, policy Policy) (Comparison, error) {
	trad, err := compose.NewTraditional(nodes, coresPerNode, gpusPerNode)
	if err != nil {
		return Comparison{}, err
	}
	totalGPUs := nodes * gpusPerNode
	cdi, err := compose.NewCDI(nodes, coresPerNode, 1, totalGPUs, composeRowPath())
	if err != nil {
		return Comparison{}, err
	}
	rt, err := Run(trad, jobs, policy)
	if err != nil {
		return Comparison{}, fmt.Errorf("sched: traditional: %w", err)
	}
	rc, err := Run(cdi, jobs, policy)
	if err != nil {
		return Comparison{}, fmt.Errorf("sched: cdi: %w", err)
	}
	return Comparison{Traditional: rt, CDI: rc}, nil
}
