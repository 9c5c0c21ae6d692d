package experiments

// The pool experiment: the serving and churn sweeps measure one
// composed server; this sweep runs the whole datacenter pool. A
// topology of rows × racks × servers × GPUs takes thousands of
// concurrent gang allocations under seeded open-loop churn, placed by
// three policies (first-fit, best-fit, tier-aware), each swept with the
// defragmenter off and on. The defrag arm must pay for itself in the
// table: strictly lower stranded capacity in every churning cell, never
// at the cost of goodput. Two extra cells rerun the tier-aware middle
// churn point on a smaller pool with crash faults and the health
// control plane attached, so drained servers' allocations re-place
// through the same migration machinery the defragmenter uses.

import (
	"fmt"
	"strings"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/pool"
	"repro/internal/sim"
)

// PoolRow is one (policy, churn, defrag[, faults]) measurement.
type PoolRow struct {
	Policy pool.Policy
	Churn  float64
	Defrag bool
	// Faulty marks the failure cells: the small topology with the crash
	// injector and the health control plane attached.
	Faulty bool
	Stats  pool.Stats
	// Health carries the control plane's counters in the faulty cells.
	Health health.Stats
}

// The churn axis: 0 freezes the pool after one placement (the no-churn
// control that must never migrate), 0.5 and 1 scale turnover at constant
// offered load.
var poolChurns = []float64{0, 0.5, 1}

const (
	// poolLoad is the target fraction of batch GPUs concurrently
	// allocated; on the default 8192-GPU topology it sustains about three
	// thousand concurrent gangs. It is deliberately high: near capacity,
	// whole-server holes are scarce enough that consolidation decides
	// whether a drained server's gangs re-place into minted holes or
	// scatter wide — which is what lets the defrag arm win goodput in the
	// failure cells instead of merely paying the concentration cost of a
	// bigger blast radius.
	poolLoad = 0.95
	// poolServingGPUs is the serving reservation carved out through the
	// serve placer before batch placement.
	poolServingGPUs = 16
	// poolFaultOutage/poolFaultGap shape the failure cells' crash
	// process: 100 ms outages separated by 5 s mean gaps per server.
	poolFaultOutage = 100 * sim.Millisecond
	poolFaultGap    = 5 * sim.Second
)

// poolSeed fixes the workload seed per churn level, so every (policy,
// defrag) arm at the same churn places the identical job schedule and
// the columns are directly comparable. The fault and health seeds are
// fixed too: both failure cells face one outage schedule.
func poolSeed(churnIdx int) int64 { return int64(9001 + churnIdx) }

const (
	poolFaultSeed  int64 = 9101
	poolHealthSeed int64 = 9201
)

// poolTopology is the main grid's pool: 8×8×8×16 = 8192 GPUs on 512
// servers. poolFaultTopology is the failure cells' smaller pool —
// 2×4×8×8 = 512 GPUs on 64 servers — kept small so a 100 ms outage is a
// meaningful fraction of the pool, not noise.
func poolTopology() pool.Topology { return pool.DefaultTopology() }

func poolFaultTopology() pool.Topology {
	return pool.Topology{Rows: 2, RacksPerRow: 4, ServersPerRack: 8, GPUsPerServer: 8}
}

// poolHealth is the failure cells' control plane: rack-scale heartbeat
// path, 1 ms beats, monitoring for twice the window so the job tail
// stays covered.
func poolHealth(window sim.Duration) health.Config {
	return health.Config{
		Seed:     poolHealthSeed,
		Interval: sim.Millisecond,
		Horizon:  2 * window,
		Path:     fabric.Preset(fabric.RackScale, 0),
	}
}

// Pool sweeps placement policy × churn intensity × defragmentation over
// the pool window, plus the two failure cells. Every cell owns a
// private sim.Env and fixed seeds, so the sweep is byte-identical across
// runs and worker counts.
func Pool(o Options) ([]PoolRow, error) { return sweep(o.Jobs, poolCells(o)) }

// poolCells is the full policy × churn × defrag cross, then the
// tier-aware failure pair at the middle churn level.
func poolCells(o Options) []cell[PoolRow] {
	o = o.withDefaults()
	var cells []cell[PoolRow]
	add := func(grid string, pol pool.Policy, churnIdx int, faulty bool) {
		for _, df := range []string{"off", "on"} {
			key := fmt.Sprintf("%s/%v/churn%g/defrag-%s", grid, pol, poolChurns[churnIdx], df)
			cells = append(cells, cell[PoolRow]{key, func() (PoolRow, error) {
				return poolCell(pol, churnIdx, df == "on", faulty, o.ServeWindow)
			}})
		}
	}
	for pol := pool.FirstFit; pol <= pool.TierAware; pol++ {
		for ci := range poolChurns {
			add("pool", pol, ci, false)
		}
	}
	add("pool/faulty", pool.TierAware, 1, true)
	return cells
}

// poolCell runs one pool configuration to completion.
func poolCell(pol pool.Policy, churnIdx int, defrag, faulty bool, window sim.Duration) (PoolRow, error) {
	topo := poolTopology()
	if faulty {
		topo = poolFaultTopology()
	}
	env := sim.NewEnv()
	defer env.Close()
	sched, err := pool.Start(env, pool.Config{
		Topo:   topo,
		Policy: pol,
		Workload: pool.Workload{
			Seed:      poolSeed(churnIdx),
			Window:    window,
			Load:      poolLoad,
			Intensity: poolChurns[churnIdx],
		},
		Defrag:      defrag,
		Serving:     servingTenants(1),
		ServingGPUs: poolServingGPUs,
	})
	if err != nil {
		return PoolRow{}, err
	}
	var ctl *health.Controller
	if faulty {
		inj, err := faults.NewInjector(faults.Config{
			Seed:       poolFaultSeed,
			CrashAfter: poolFaultGap,
			CrashFor:   poolFaultOutage,
		})
		if err != nil {
			return PoolRow{}, err
		}
		ctl, err = health.Start(env, sched, inj, poolHealth(window))
		if err != nil {
			return PoolRow{}, err
		}
	}
	env.Run()
	row := PoolRow{
		Policy: pol,
		Churn:  poolChurns[churnIdx],
		Defrag: defrag,
		Faulty: faulty,
		Stats:  sched.Stats(),
	}
	if ctl != nil {
		row.Health = ctl.Stats()
	}
	return row, nil
}

// RenderPool formats the sweep.
func RenderPool(rows []PoolRow) string {
	var b strings.Builder
	topo := poolTopology()
	ft := poolFaultTopology()
	fmt.Fprintf(&b, "Pool scheduling under churn (%d GPUs: %d rows x %d racks x %d servers x %d GPUs; load %.2g):\n",
		topo.GPUs(), topo.Rows, topo.RacksPerRow, topo.ServersPerRack, topo.GPUsPerServer, poolLoad)
	fmt.Fprintf(&b, "(frag = 1 - largest block/reference gang, time-averaged; stranded = free GPUs on sub-gang fragments;\n")
	fmt.Fprintf(&b, " goodput = efficiency-weighted GPU-seconds delivered over batch capacity)\n")
	fmt.Fprintf(&b, "%-10s %-5s %-6s %-6s %-5s %-9s %-6s %-9s %-8s %-5s %-8s %-6s %-6s %-7s\n",
		"policy", "churn", "defrag", "jobs", "peak", "placelat", "frag", "stranded", "strw", "migr", "mib", "drain", "kill", "goodput")
	for _, r := range rows {
		if r.Faulty {
			continue
		}
		b.WriteString(renderPoolRow(r))
	}
	fmt.Fprintf(&b, "failure cells (%d GPUs on %d servers, crash faults %v/%v, health plane attached):\n",
		ft.GPUs(), ft.Servers(), poolFaultOutage, poolFaultGap)
	for _, r := range rows {
		if !r.Faulty {
			continue
		}
		b.WriteString(renderPoolRow(r))
		fmt.Fprintf(&b, "  health: %d suspicions, %d drains, %d readmissions, mean detection %v\n",
			r.Health.Suspicions, r.Health.Drains, r.Health.Readmissions, r.Health.MeanDetection())
	}
	b.WriteString("the defrag arm must strand strictly less than its off twin in every nonzero-churn cell,\n")
	b.WriteString("never regress goodput, and leave the zero-churn placement untouched (no migrations).\n")
	return b.String()
}

func renderPoolRow(r PoolRow) string {
	st := r.Stats
	df := "off"
	if r.Defrag {
		df = "on"
	}
	return fmt.Sprintf("%-10s %-5.2g %-6s %-6d %-5d %-9v %-6.3f %-9.1f %-8.0f %-5d %-8.1f %-6d %-6d %-7.3f\n",
		r.Policy, r.Churn, df, st.Jobs, st.PeakConcurrent, st.PlaceLatencyMean,
		st.FragAvg, st.StrandedAvg, st.StrandedPowerW, st.Migrations+st.DrainMigrations,
		float64(st.MigrationBytes)/(1<<20), st.Drains, st.Killed, st.Goodput)
}
