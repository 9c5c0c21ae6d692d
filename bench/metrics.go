package main

// The metric tables. BENCHMARK.json at the repository root lists the same
// names, units, directions and bounds; bench_test.go holds the two to each
// other.

// metric is one reported number.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is how much an end-to-end metric may worsen, as a share of the
	// parent's median, before a change counts as a regression.
	bound float64
	// modeled marks a per-layer count the simulation itself produces. It
	// repeats exactly for a seed, so a change that moves it changed the
	// output and is not a speed-up.
	modeled bool
}

// e2eMetrics come from untraced runs and are the only gated numbers.
var e2eMetrics = []metric{
	{name: "run_ms_p10", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "alloc_mb_per_run", unit: "MB", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// cpuBuckets are the modules a traced run splits host CPU across, in
// layer order: engine, device, comms, control, the applications and
// helpers the paper sections run, the benchmark's own code, and repo
// frames of any other module. Every profile sample lands in exactly one.
var cpuBuckets = []string{
	"sim.own_cpu_pct", "sim.runtime_cpu_pct", "gosched.cpu_pct", "gc.cpu_pct",
	"gpu.cpu_pct", "cuda.cpu_pct", "slack.cpu_pct",
	"mpi.cpu_pct", "fabric.cpu_pct", "remoting.cpu_pct", "faults.cpu_pct",
	"serve.cpu_pct", "health.cpu_pct", "pool.cpu_pct",
	"lammps.cpu_pct", "proxy.cpu_pct", "cosmoflow.cpu_pct", "experiments.cpu_pct",
	"trace.cpu_pct", "stats.cpu_pct", "model.cpu_pct", "compose.cpu_pct",
	"core.cpu_pct", "horovod.cpu_pct", "runner.cpu_pct",
	"bench.cpu_pct", "other.cpu_pct",
}

// layerMetrics come from the traced run: the CPU shares above, then
// throughput, modeled counts and host figures per layer.
var layerMetrics = append(cpuShares(), []metric{
	{name: "sim.sim_s_per_host_s", unit: "s/s", better: "higher"},

	{name: "cuda.api_calls", unit: "count", better: "lower", modeled: true},
	{name: "cuda.calls_per_host_s", unit: "1/s", better: "higher"},

	{name: "remoting.calls", unit: "count", better: "lower", modeled: true},
	{name: "remoting.retries", unit: "count", better: "lower", modeled: true},
	{name: "remoting.timeouts", unit: "count", better: "lower", modeled: true},
	{name: "remoting.migrations", unit: "count", better: "lower", modeled: true},
	{name: "remoting.readmissions", unit: "count", better: "lower", modeled: true},
	{name: "remoting.useful_ratio", unit: "ratio", better: "higher", modeled: true},

	{name: "serve.completed_per_host_s", unit: "1/s", better: "higher"},
	{name: "serve.transport_calls", unit: "count", better: "lower", modeled: true},
	{name: "serve.transport_wait_sim_ms", unit: "ms", better: "lower", modeled: true},
	{name: "serve.p99_sim_ms", unit: "ms", better: "lower", modeled: true},
	{name: "serve.shed", unit: "count", better: "lower", modeled: true},
	{name: "serve.exhausted_cells", unit: "count", better: "lower", modeled: true},

	{name: "health.beats", unit: "count", better: "lower", modeled: true},
	{name: "health.dropped_beats", unit: "count", better: "lower", modeled: true},
	{name: "health.suspicions", unit: "count", better: "lower", modeled: true},
	{name: "health.false_suspicions", unit: "count", better: "lower", modeled: true},

	{name: "pool.placed", unit: "count", better: "higher", modeled: true},
	{name: "pool.migrations", unit: "count", better: "lower", modeled: true},
	{name: "pool.peak_concurrent", unit: "count", better: "higher", modeled: true},
	{name: "pool.placements_per_host_s", unit: "1/s", better: "higher"},
	{name: "pool.start_ms", unit: "ms", better: "lower"},

	{name: "host.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "host.profile_samples", unit: "count", better: "higher"},
	{name: "host.run_ms_p50", unit: "ms", better: "lower"},
	{name: "host.run_ms_p90", unit: "ms", better: "lower"},
	{name: "host.run_ms_iqr", unit: "ms", better: "lower"},
	{name: "host.samples", unit: "count", better: "higher"},
}...)

func cpuShares() []metric {
	ms := make([]metric, len(cpuBuckets))
	for i, b := range cpuBuckets {
		ms[i] = metric{name: b, unit: "%", better: "lower"}
	}
	return ms
}

// metricByName looks a name up in both tables.
func metricByName(name string) (metric, bool) {
	for _, ms := range [][]metric{e2eMetrics, layerMetrics} {
		for _, m := range ms {
			if m.name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}
