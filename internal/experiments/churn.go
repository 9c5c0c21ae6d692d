package experiments

// The churn experiment: the serving sweep (serving.go) asks how much
// composition slack a multi-tenant stack absorbs when every GPU stays up.
// Production pools do not get that luxury — row-scale disaggregation
// multiplies the blast radius of a single chassis, so the interesting
// question is how a serving pool behaves while servers churn through
// crash outages. This sweep crosses the serving grid with a churn
// intensity axis and runs two arms per faulty cell: a detect-nothing
// baseline that discovers outages only when calls time out, and a
// managed arm where the health control plane drains suspects ahead of
// the timeout path, readmits recovered servers, and arms SLO-aware load
// shedding while the pool is degraded. The zero-churn cells run the
// original serving cell verbatim, so the sweep's fault-free corner
// reproduces the serving experiment byte for byte.

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/health"
	"repro/internal/remoting"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ChurnRow is one (slack, load, intensity, arm) measurement.
type ChurnRow struct {
	Slack sim.Duration
	Load  float64
	// Intensity scales the churn process (0 = no faults, 1 = the
	// reference outage rate); Arm is "serving" for the zero-churn
	// reproduction of the serving sweep, else "baseline" or "managed".
	Intensity float64
	Arm       string
	Report    serve.Report
	// Detection is the mean true-positive detection latency (managed arm
	// only).
	Detection sim.Duration
	// Failovers counts reactive (timeout-triggered) server switches;
	// Migrations counts proactive drains; Readmissions counts servers
	// returned to rotation.
	Failovers    int64
	Migrations   int64
	Readmissions int64
	// Exhausted records that every pool server was down at once and the
	// engine died mid-window; the report still covers what completed.
	Exhausted bool
}

// The churn axis crossed with the serving grid's slack and load axes.
// Intensity 0 reuses the serving cell; the continuous batcher is the
// only policy swept here — it is the discipline the serving experiment
// shows survives slack best, so it gets the churn stress. The 1 ms
// slack extreme is left out: the serving sweep shows that arm already
// saturated fault-free, and a saturated pool has no goodput headroom
// for any control plane to protect.
var (
	churnSlacks      = []sim.Duration{0, 100 * sim.Microsecond}
	churnIntensities = []float64{0, 0.5, 1}
)

const (
	// churnStandbys provisions the pool: primary + standbys, no
	// node-local fallback (a production pool degrades, it does not
	// teleport the model onto the head node).
	churnStandbys = 2
	// churnMaxQueue caps the admission queue in the managed arm.
	churnMaxQueue = 64
	// churnOutage is the crash outage length; churnGap is the mean
	// between-outage gap at intensity 1 (scaled down by 1/intensity for
	// gentler churn).
	churnOutage = 40 * sim.Millisecond
	churnGap    = 60 * sim.Millisecond
)

// churnTenants is the serving tenant mix with degradation priorities
// attached: the batch API tenant sheds first, the interactive chat
// tenant is protected.
func churnTenants(load float64) []serve.Tenant {
	ts := servingTenants(load)
	for i := range ts {
		if ts[i].Name == "batchapi" {
			ts[i].Priority = 1
		}
	}
	return ts
}

// churnFaultSeed fixes the fault-schedule seed per intensity level, so
// the baseline and managed arms of the same cell face the identical
// outage schedule and their goodput gap is purely the control plane's
// doing.
func churnFaultSeed(intIdx int) int64 { return int64(7001 + intIdx) }

// churnFaults is the churn process at the given intensity: recurring
// crash outages of fixed length separated by exponential gaps whose mean
// shrinks as intensity grows.
func churnFaults(intensity float64, seed int64) faults.Config {
	if intensity <= 0 {
		return faults.Config{Seed: seed}
	}
	return faults.Config{
		Seed:       seed,
		CrashAfter: sim.Duration(float64(churnGap) / intensity),
		CrashFor:   churnOutage,
	}
}

// churnPolicy is the retry/failover discipline both arms run under. The
// call timeout must exceed the device warm-up charge a freshly admitted
// server pays on its first kernel (the per-attempt deadline excludes
// kernel execution time, but warm-up is billed as part of the launch),
// so failing over to a cold standby is slow but not a spurious timeout.
func churnPolicy() faults.Policy {
	return faults.Policy{
		CallTimeout:      100 * sim.Millisecond,
		MaxRetries:       2,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * sim.Millisecond,
	}
}

// churnHealth is the managed arm's control-plane config: heartbeats over
// the same fabric path the workload uses, monitoring for twice the
// serving window so the tail of the run stays covered.
func churnHealth(seed int64, window sim.Duration, path fabric.Path) health.Config {
	return health.Config{Seed: seed, Horizon: 2 * window, Path: path}
}

// Churn sweeps slack × load × churn intensity over the serving window.
// Every cell owns a private sim.Env and fixed seeds, so the sweep is
// byte-identical across runs and worker counts, and the zero-churn cells
// call the serving experiment's own cell function, reproducing its
// continuous-batching rows exactly.
func Churn(o Options) ([]ChurnRow, error) { return sweep(o.Jobs, churnCells(o)) }

// churnCells is the grid in slack, load, intensity order: a zero-churn
// point is one "serving" cell, a faulty one a baseline/managed pair.
func churnCells(o Options) []cell[ChurnRow] {
	o = o.withDefaults()
	var cells []cell[ChurnRow]
	for _, sl := range churnSlacks {
		for li, load := range servingLoads {
			for ii, intensity := range churnIntensities {
				key := fmt.Sprintf("churn/%v/load%g/x%g", sl, load, intensity)
				if intensity == 0 {
					cells = append(cells, cell[ChurnRow]{key + "/serving", func() (ChurnRow, error) {
						rep, _, err := servingCell(serve.Continuous, sl, load, o.ServeWindow, servingSeed(li), nil)
						return ChurnRow{Slack: sl, Load: load, Arm: "serving", Report: rep}, err
					}})
					continue
				}
				for _, arm := range []string{"baseline", "managed"} {
					cells = append(cells, cell[ChurnRow]{key + "/" + arm, func() (ChurnRow, error) {
						row, _, err := churnCell(sl, load, intensity, o.ServeWindow, li, ii, arm == "managed", nil)
						return row, err
					}})
				}
			}
		}
	}
	return cells
}

// churnCell serves one window against a resilient pool under the churn
// schedule. The managed arm adds the health control plane and arms
// admission control with its capacity signal; the baseline arm runs the
// identical pool, schedule, and workload with neither. Pool exhaustion
// (the engine dying because no server survived) is recorded, not
// returned as an error — a pool that collapses under churn is a
// measurement, not a failure of the experiment. A non-nil rec brackets
// the window, and the cell returns its application spans: the engine's
// request and batch spans, then the managed arm's per-server health
// states.
func churnCell(sl sim.Duration, load float64, intensity float64, window sim.Duration,
	loadIdx, intIdx int, managed bool, rec *trace.Recorder) (ChurnRow, []trace.AppSpan, error) {
	tenants := churnTenants(load)
	reqs, err := serve.Generate(tenants, window, servingSeed(loadIdx))
	if err != nil {
		return ChurnRow{}, nil, err
	}
	path, err := fabric.PathForSlack(sl)
	if err != nil {
		return ChurnRow{}, nil, err
	}
	env := sim.NewEnv()
	defer env.Close()
	fseed := churnFaultSeed(intIdx)
	pool, err := remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{
		Config:               remoting.Config{Path: path, Seed: fseed},
		Faults:               churnFaults(intensity, fseed),
		Policy:               churnPolicy(),
		Standbys:             churnStandbys,
		DisableLocalFallback: true,
	})
	if err != nil {
		return ChurnRow{}, nil, err
	}
	cfg := serve.Config{Policy: serve.Continuous, Tenants: tenants, RecordSpans: rec != nil}
	var ctl *health.Controller
	if managed {
		ctl, err = health.Start(env, pool, pool.Injector(), churnHealth(fseed, window, path))
		if err != nil {
			return ChurnRow{}, nil, err
		}
		cfg.Admission = serve.Admission{ShedExpired: true, MaxQueue: churnMaxQueue, Capacity: ctl}
	}
	eng, err := serve.Start(env, serve.NewRemote(pool), cfg, reqs)
	if err != nil {
		return ChurnRow{}, nil, err
	}
	var spans []trace.AppSpan
	if rec != nil {
		if managed {
			ctl.Registry().KeepLog()
		}
		rec.Start(env)
	}
	env.Run()
	if rec != nil {
		rec.Stop(env)
		spans = eng.Spans()
		if managed {
			spans = append(spans, healthSpans(ctl.Registry().Log(), env.Now())...)
		}
	}
	row := ChurnRow{
		Slack:     sl,
		Load:      load,
		Intensity: intensity,
		Arm:       "baseline",
		Report:    eng.Metrics().Report(window),
		Exhausted: eng.Err() != nil,
	}
	st := pool.Stats()
	if afterChurnCell != nil {
		afterChurnCell(st)
	}
	row.Failovers = st.Failovers
	row.Migrations = st.Migrations
	row.Readmissions = st.Readmissions
	if managed {
		row.Arm = "managed"
		row.Detection = ctl.Stats().MeanDetection()
	}
	return row, spans, nil
}

// afterChurnCell, when set, receives each churn cell's transport counters
// once its window drains. Tests count fault-free timeouts through it; it
// is nil otherwise.
var afterChurnCell func(remoting.Stats)

// healthTrackBase is the application-span track the health registry's
// state intervals render on in the Chrome trace, one track per server
// (tenant requests occupy tracks 0.., batches -1, slack 1000).
const healthTrackBase = 2000

// healthSpans converts a registry transition log into per-server state
// intervals: every non-healthy episode becomes a span named for the
// state, so drains, deaths, and recoveries line up under the request
// timeline.
func healthSpans(log []health.Transition, end sim.Time) []trace.AppSpan {
	var spans []trace.AppSpan
	open := map[int]health.Transition{}
	for _, tr := range log {
		if prev, ok := open[tr.Server]; ok {
			spans = append(spans, trace.AppSpan{
				Name:  prev.To.String(),
				Cat:   "health",
				Track: healthTrackBase + prev.Server,
				Start: prev.At,
				End:   tr.At,
			})
			delete(open, tr.Server)
		}
		if tr.To != health.Healthy {
			open[tr.Server] = tr
		}
	}
	for _, tr := range log { // close still-open episodes in log order
		if prev, ok := open[tr.Server]; ok {
			spans = append(spans, trace.AppSpan{
				Name:  prev.To.String(),
				Cat:   "health",
				Track: healthTrackBase + prev.Server,
				Start: prev.At,
				End:   end,
			})
			delete(open, tr.Server)
		}
	}
	return spans
}

// WriteChurnTrace replays one representative managed cell — the
// continuous batcher at load 1, the paper's 100 µs row-scale slack, full
// churn intensity — with span recording on, and writes the Chrome trace
// JSON: per-tenant request lifetimes and batch iterations (from the
// engine) alongside per-server health-state intervals (from the
// registry), so a drain episode is visible directly under the requests
// it sheds.
func WriteChurnTrace(o Options, w io.Writer) error {
	o = o.withDefaults()
	const loadIdx, intIdx = 1, 2 // load 1, intensity 1
	rec := trace.NewRecorder("churn-managed-100us")
	_, spans, err := churnCell(100*sim.Microsecond, servingLoads[loadIdx], churnIntensities[intIdx],
		o.ServeWindow, loadIdx, intIdx, true, rec)
	if err != nil {
		return err
	}
	tr := rec.Trace()
	tr.AppSpans = spans
	return tr.WriteChromeTrace(w)
}

// ChurnFaultLog renders the deterministic outage schedule each nonzero
// intensity level draws, straight from the fault config (the same dump
// cmd/reproduce exposes behind -faultlog).
func ChurnFaultLog(o Options) string {
	o = o.withDefaults()
	var b strings.Builder
	for ii, intensity := range churnIntensities {
		if intensity == 0 {
			continue
		}
		fmt.Fprintf(&b, "churn intensity %g (seed %d):\n", intensity, churnFaultSeed(ii))
		b.WriteString(churnFaults(intensity, churnFaultSeed(ii)).Describe(churnStandbys+1, 2*o.ServeWindow))
	}
	return b.String()
}

// RenderChurn formats the sweep.
func RenderChurn(rows []ChurnRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving pool under GPU churn (continuous batching, %d-server pool):\n", churnStandbys+1)
	fmt.Fprintf(&b, "(goodput = completions within SLO per second; shed requests spend no device time)\n")
	fmt.Fprintf(&b, "%-8s %-5s %-5s %-9s %-5s %-5s %-6s %-8s %-9s %-9s %-5s %-5s %-5s %-4s\n",
		"slack", "load", "churn", "arm", "req", "shed", "fail", "slo-att", "goodput", "detect", "fov", "migr", "readm", "dead")
	for _, r := range rows {
		rep := r.Report
		dead := ""
		if r.Exhausted {
			dead = "yes"
		}
		det := ""
		if r.Detection > 0 {
			det = fmt.Sprintf("%v", r.Detection)
		}
		fmt.Fprintf(&b, "%-8v %-5.2g %-5.2g %-9s %-5d %-5d %-6d %-8.3f %-9.1f %-9s %-5d %-5d %-5d %-4s\n",
			r.Slack, r.Load, r.Intensity, r.Arm, rep.Requests, rep.Shed, rep.Failed,
			rep.SLOAttainment, rep.Goodput, det, r.Failovers, r.Migrations, r.Readmissions, dead)
	}
	b.WriteString("zero-churn rows reproduce the serving sweep's continuous rows; the managed arm's\n")
	b.WriteString("goodput must dominate the baseline's under every nonzero churn intensity.\n")
	return b.String()
}
