package serve

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Metrics is the raw measurement record of one serving engine. Slices
// are in completion order, which is deterministic.
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
	// BatchSizes records the decode batch width of every executed
	// iteration; QueueDepths records the admission-queue depth observed at
	// the start of each iteration.
	BatchSizes  []float64
	QueueDepths []float64
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
	if len(m.BatchSizes) > 0 {
		r.MeanBatch = stats.Mean(m.BatchSizes)
		r.MaxBatch = stats.Max(m.BatchSizes)
	}
	if len(m.QueueDepths) > 0 {
		r.MeanQueue = stats.Mean(m.QueueDepths)
		r.MaxQueue = stats.Max(m.QueueDepths)
	}
	return r
}
