package serve

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Metrics is the raw measurement record of one serving engine. Latencies
// are in completion order, which is deterministic; the per-step batch
// widths and queue depths are kept only as running summaries, so the
// record grows with completed requests, not with executed steps.
type Metrics struct {
	// Requests is the offered load; Completed counts requests served.
	Requests  int
	Completed int
	// Latencies holds each completed request's arrival→completion latency
	// in seconds, in completion order.
	Latencies []float64
	// SLOMet counts completed requests that finished within their
	// tenant's SLO.
	SLOMet int
	// Shed counts requests the admission gate dropped (queue wait past
	// SLO, or backpressure overflow); ShedByTenant breaks the count down
	// by tenant index. Shed requests are not failures — the gate gave
	// their device time to requests that could still meet their SLOs.
	Shed         int
	ShedByTenant []int

	// batch summarizes the decode batch width of every executed
	// iteration; queue the admission-queue depth observed at the start of
	// each step.
	batch, queue summary
}

// summary is a running count, sum and maximum of small non-negative
// integer samples. The sum stays far below 2^53, so its mean is
// bit-identical to the in-order float64 mean of the same samples.
type summary struct {
	n, sum, max int
}

// add records k samples of value v.
func (s *summary) add(v, k int) {
	s.n += k
	s.sum += v * k
	s.max = max(s.max, v)
}

// mean returns the summary's mean (zero when it holds no sample).
func (s summary) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// record registers one completed request.
func (m *Metrics) record(latency sim.Duration, slo sim.Duration) {
	m.Completed++
	m.Latencies = append(m.Latencies, latency.Seconds())
	if latency <= slo {
		m.SLOMet++
	}
}

// shed registers one shed request against its tenant.
func (m *Metrics) shed(tenant int) {
	m.Shed++
	for len(m.ShedByTenant) <= tenant {
		m.ShedByTenant = append(m.ShedByTenant, 0)
	}
	m.ShedByTenant[tenant]++
}

// Report is the SLO-grade summary of a serving window.
type Report struct {
	Requests  int
	Completed int
	// Shed counts admission-gate drops; Failed is what remains — offered
	// but neither completed nor deliberately shed (the engine died, or
	// the window closed mid-flight). ShedRate is Shed over Requests.
	Shed     int
	Failed   int
	ShedRate float64
	// Latency quantiles over completed requests.
	P50, P95, P99, P999 sim.Duration
	// SLOAttainment is the fraction of offered requests that completed
	// within their tenant's SLO; Goodput is the same count expressed as a
	// rate over the serving window (requests/second).
	SLOAttainment float64
	Goodput       float64
	// Batch-size and queue-depth distribution summaries.
	MeanBatch float64
	MaxBatch  float64
	MeanQueue float64
	MaxQueue  float64
}

// Report summarizes the metrics for a window of the given length.
func (m *Metrics) Report(window sim.Duration) Report {
	qs := stats.Quantiles(m.Latencies, []float64{0.50, 0.95, 0.99, 0.999})
	r := Report{
		Requests:  m.Requests,
		Completed: m.Completed,
		Shed:      m.Shed,
		Failed:    m.Requests - m.Completed - m.Shed,
		P50:       sim.Duration(qs[0]),
		P95:       sim.Duration(qs[1]),
		P99:       sim.Duration(qs[2]),
		P999:      sim.Duration(qs[3]),
	}
	if m.Requests > 0 {
		r.SLOAttainment = float64(m.SLOMet) / float64(m.Requests)
		r.ShedRate = float64(m.Shed) / float64(m.Requests)
	}
	if window > 0 {
		r.Goodput = float64(m.SLOMet) / window.Seconds()
	}
	r.MeanBatch, r.MaxBatch = m.batch.mean(), float64(m.batch.max)
	r.MeanQueue, r.MaxQueue = m.queue.mean(), float64(m.queue.max)
	return r
}
