package experiments

// The serving experiment: the paper studies throughput-oriented HPC
// applications, where slack hides inside long kernels. Online inference
// serving is the opposite regime — per-request transfers are tiny, decode
// kernels run for microseconds, and users judge the system by tail
// latency against an SLO, not by runtime. This sweep asks how much
// row-scale slack a multi-tenant serving stack can absorb at a given
// offered load before p99 and goodput give way, and how much of the
// damage each batching discipline buys back.

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/slack"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ServingRow is one (policy, slack, load) measurement of the sweep.
type ServingRow struct {
	Policy serve.Policy
	Slack  sim.Duration
	// Load scales every tenant's offered arrival rate (1 = the reference
	// mix below).
	Load float64
	// Report is the SLO-grade summary of the window.
	Report serve.Report
}

// The sweep grid: zero slack (the node-local baseline arm), the paper's
// headline 100 µs row-scale figure, and a 1 ms extreme, crossed with two
// offered loads and all three batching disciplines.
var (
	servingSlacks   = []sim.Duration{0, 100 * sim.Microsecond, 1 * sim.Millisecond}
	servingLoads    = []float64{0.5, 1}
	servingPolicies = []serve.Policy{serve.NoBatch, serve.FixedBatch, serve.Continuous}
)

// servingTenants is the reference tenant mix at the given load multiplier:
// an interactive chat tenant with a tight SLO and a batch-API tenant with
// a loose one, sharing the same GPU.
func servingTenants(load float64) []serve.Tenant {
	return []serve.Tenant{
		{Name: "chat", Rate: 100 * load, MeanPromptTokens: 32, MeanOutputTokens: 8,
			SLO: 25 * sim.Millisecond},
		{Name: "batchapi", Rate: 60 * load, MeanPromptTokens: 64, MeanOutputTokens: 12,
			SLO: 200 * sim.Millisecond},
	}
}

// servingSeed fixes the workload seed per load level, so every (policy,
// slack) cell at the same load serves the identical request schedule and
// the columns are directly comparable.
func servingSeed(loadIdx int) int64 { return int64(41 + loadIdx) }

// Serving sweeps batching policy × slack × offered load over one serving
// window of open-loop Poisson arrivals. Every cell owns a private sim.Env
// and a fixed seed, so the sweep is byte-identical across runs and worker
// counts; the zero-slack arm injects nothing and therefore reproduces the
// node-local baseline exactly.
func Serving(o Options) ([]ServingRow, error) { return sweep(o.Jobs, servingCells(o)) }

// servingCells is the grid in policy, slack, load order.
func servingCells(o Options) []cell[ServingRow] {
	o = o.withDefaults()
	var cells []cell[ServingRow]
	for _, pol := range servingPolicies {
		for _, sl := range servingSlacks {
			for li, load := range servingLoads {
				cells = append(cells, cell[ServingRow]{fmt.Sprintf("serving/%v/load%g/%v", pol, load, sl), func() (ServingRow, error) {
					rep, _, err := servingCell(pol, sl, load, o.ServeWindow, servingSeed(li), nil)
					return ServingRow{Policy: pol, Slack: sl, Load: load, Report: rep}, err
				}})
			}
		}
	}
	return cells
}

// servingCell runs one serving window on a single node-local GPU with the
// given per-call slack injected — the paper's method applied to the
// serving stack. A non-nil rec records the window — API calls, kernels
// and DMA — and the cell returns its application spans: the engine's
// request and batch spans, then every injected slack interval.
func servingCell(pol serve.Policy, sl sim.Duration, load float64, window sim.Duration, seed int64, rec *trace.Recorder) (serve.Report, []trace.AppSpan, error) {
	tenants := servingTenants(load)
	reqs, err := serve.Generate(tenants, window, seed)
	if err != nil {
		return serve.Report{}, nil, err
	}
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, gpu.A100())
	if err != nil {
		return serve.Report{}, nil, err
	}
	ctx := cuda.NewContext(dev, cuda.Config{})
	var opts []slack.Option
	var slackSpans []trace.AppSpan
	if rec != nil {
		dev.Listen(rec)
		ctx.Interpose(rec)
		opts = append(opts, slack.WithObserver(func(name string, start, end sim.Time) {
			if rec.Recording() {
				slackSpans = append(slackSpans, trace.AppSpan{
					Name: name, Cat: "slack", Track: slackTrack, Start: start, End: end,
				})
			}
		}))
	}
	ctx.Interpose(slack.New(sl, opts...))
	eng, err := serve.Start(env, serve.NewLocal(ctx),
		serve.Config{Policy: pol, Tenants: tenants, RecordSpans: rec != nil}, reqs)
	if err != nil {
		return serve.Report{}, nil, err
	}
	if rec != nil {
		rec.Start(env)
	}
	env.Run()
	if rec != nil {
		rec.Stop(env)
	}
	if err := eng.Err(); err != nil {
		return serve.Report{}, nil, err
	}
	return eng.Metrics().Report(window), append(eng.Spans(), slackSpans...), nil
}

// slackTrack is the application-span track slack intervals render on in
// the Chrome trace (tenant requests occupy tracks 0.., batches -1).
const slackTrack = 1000

// WriteServingTrace replays one representative cell of the sweep — the
// continuous batcher at load 1 under the paper's 100 µs row-scale slack —
// with the trace recorder attached, and writes the Chrome trace JSON:
// API calls (pid 0), kernels and DMA (pid 1), and application spans
// (pid 2: per-tenant request lifetimes, batch iterations, and every
// injected slack interval).
func WriteServingTrace(o Options, w io.Writer) error {
	o = o.withDefaults()
	rec := trace.NewRecorder("serving-continuous-100us")
	_, spans, err := servingCell(serve.Continuous, 100*sim.Microsecond, servingLoads[1], o.ServeWindow, servingSeed(1), rec)
	if err != nil {
		return err
	}
	tr := rec.Trace()
	tr.AppSpans = spans
	return tr.WriteChromeTrace(w)
}

// RenderServing formats the sweep.
func RenderServing(rows []ServingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-tenant serving under injected slack (open-loop Poisson arrivals):\n")
	fmt.Fprintf(&b, "(goodput = completions within the owning tenant's SLO, per second of window)\n")
	fmt.Fprintf(&b, "%-11s %-8s %-5s %-5s %-11s %-11s %-11s %-8s %-9s %-7s %-7s\n",
		"policy", "slack", "load", "req", "p50", "p99", "p99.9", "slo-att", "goodput", "batch", "queue")
	for _, r := range rows {
		rep := r.Report
		fmt.Fprintf(&b, "%-11s %-8v %-5.2g %-5d %-11v %-11v %-11v %-8.3f %-9.1f %-7.2f %-7.2f\n",
			r.Policy, r.Slack, r.Load, rep.Requests,
			rep.P50, rep.P99, rep.P999,
			rep.SLOAttainment, rep.Goodput, rep.MeanBatch, rep.MeanQueue)
	}
	b.WriteString("zero slack is the node-local arm.\n")
	b.WriteString("claim: continuous batching holds goodput longest as slack grows (most goodput at the largest slack):\n")
	for _, c := range servingClaims(rows) {
		goodput := make([]string, len(c.rows))
		for i, r := range c.rows {
			goodput[i] = fmt.Sprintf("%v %.1f", r.Policy, r.Report.Goodput)
		}
		fmt.Fprintf(&b, "  load %g at %v: %v (goodput %s)\n", c.load, c.slack, c.holds, strings.Join(goodput, ", "))
	}
	return b.String()
}

// servingClaim is the serving footer's claim at one offered load, read at
// the largest slack swept: continuous batching keeps strictly more
// goodput than every other policy.
type servingClaim struct {
	load  float64
	slack sim.Duration
	// rows are the load's rows at that slack, in sweep order.
	rows  []ServingRow
	holds bool
}

// servingClaims evaluates the footer's claim at each load, in the order
// the loads first appear among the rows.
func servingClaims(rows []ServingRow) []servingClaim {
	var top sim.Duration
	for _, r := range rows {
		top = max(top, r.Slack)
	}
	var claims []servingClaim
	for _, r := range rows {
		if r.Slack < top {
			continue
		}
		i := slices.IndexFunc(claims, func(c servingClaim) bool { return stats.ApproxEqual(c.load, r.Load, 1e-9) })
		if i < 0 {
			i = len(claims)
			claims = append(claims, servingClaim{load: r.Load, slack: top})
		}
		claims[i].rows = append(claims[i].rows, r)
	}
	for i, c := range claims {
		cont := slices.IndexFunc(c.rows, func(r ServingRow) bool { return r.Policy == serve.Continuous })
		holds := cont >= 0
		for j, r := range c.rows {
			holds = holds && (j == cont || r.Report.Goodput < c.rows[cont].Report.Goodput)
		}
		claims[i].holds = holds
	}
	return claims
}
