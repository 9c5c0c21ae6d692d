package fabric

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// SharedLink models the contended resource a disaggregated chassis
// actually is: one uplink serving many hosts. Transfers serialize on the
// link; queueing delay emerges from load. The paper's single-node method
// assumes "added latencies due to network channel congestion [are] a
// non-issue" — this type lets that assumption be tested (see the
// congestion experiment), showing at what utilization it breaks down.
type SharedLink struct {
	env       *sim.Env
	latency   sim.Duration
	bandwidth float64
	// held is set while a transfer occupies the link; free wakes one
	// queued transfer per release, which then re-checks held.
	held bool
	free *sim.Signal

	transfers int64
	busy      sim.Duration
	queued    sim.Duration
}

// NewSharedLink builds a link with the given one-way latency and bandwidth
// in bytes/second; it carries one transfer at a time. It is part of the
// package's validated constructor path: invalid parameters are an error,
// not a panic, so sweeps can reject one point and carry on.
func NewSharedLink(env *sim.Env, latency sim.Duration, bandwidth float64) (*SharedLink, error) {
	if latency < 0 || bandwidth <= 0 {
		return nil, fmt.Errorf("fabric: invalid shared link (%v, %g B/s)", latency, bandwidth)
	}
	return &SharedLink{
		env:       env,
		latency:   latency,
		bandwidth: bandwidth,
		free:      sim.NewSignal(env),
	}, nil
}

// Transfer moves n bytes across the link from the calling process,
// queueing behind other transfers while the link is busy. It returns the
// total time experienced (queueing + latency + serialization). Negative
// sizes clamp to zero, as in Path.TransferTime.
func (l *SharedLink) Transfer(p *sim.Proc, n int64) sim.Duration {
	if n < 0 {
		n = 0
	}
	start := p.Now()
	for l.held {
		l.free.Wait(p)
	}
	l.held = true
	waited := p.Now().Sub(start)
	dur := l.latency + sim.Duration(float64(n)/l.bandwidth)
	p.Sleep(dur)
	l.held = false
	l.free.FireOne()
	l.transfers++
	l.busy += dur
	l.queued += waited
	return p.Now().Sub(start)
}

// MeanQueueing returns the average time transfers spent waiting for the
// link — the congestion-induced slack the single-host method ignores.
func (l *SharedLink) MeanQueueing() sim.Duration {
	if l.transfers == 0 {
		return 0
	}
	return l.queued / sim.Duration(l.transfers)
}

// Utilization returns link busy time over elapsed time.
func (l *SharedLink) Utilization() float64 {
	now := l.env.Now()
	if now <= 0 {
		return 0
	}
	return float64(l.busy) / float64(now)
}

// CongestionPoint is one measurement of a congestion sweep.
type CongestionPoint struct {
	Hosts        int
	Utilization  float64
	MeanQueueing sim.Duration
	// SlackInflation is (nominal + queueing) / nominal: 1.0 means the
	// no-congestion assumption holds exactly.
	SlackInflation float64
}

// MeasureCongestion drives the shared link with hosts senders, each
// issuing perHost transfers of msgBytes with thinkTime between them, and
// reports how queueing inflates the nominal slack at that population.
// Each call runs a private simulation whose jitter stream is seeded by
// the host count, so a population's point is the same wherever it runs.
func MeasureCongestion(hosts int, msgBytes int64, thinkTime sim.Duration, latency sim.Duration, bandwidth float64, perHost int) (CongestionPoint, error) {
	if msgBytes <= 0 || perHost <= 0 {
		return CongestionPoint{}, fmt.Errorf("fabric: invalid congestion sweep (%d bytes × %d)", msgBytes, perHost)
	}
	if hosts <= 0 {
		return CongestionPoint{}, fmt.Errorf("fabric: non-positive host count %d", hosts)
	}
	env := sim.NewEnv()
	defer env.Close()
	link, err := NewSharedLink(env, latency, bandwidth)
	if err != nil {
		return CongestionPoint{}, err
	}
	rng := rand.New(rand.NewSource(int64(hosts)))
	for i := 0; i < hosts; i++ {
		// Jitter each host's phase and period: perfectly staggered
		// deterministic senders would never collide, which is not how
		// independent hosts behave.
		offset := sim.Duration(rng.Float64()) * thinkTime
		think := sim.Duration(float64(thinkTime) * (0.7 + 0.6*rng.Float64()))
		env.SpawnAt(offset, fmt.Sprintf("host%d", i), func(p *sim.Proc) {
			for k := 0; k < perHost; k++ {
				link.Transfer(p, msgBytes)
				p.Sleep(think)
			}
		})
	}
	env.Run()
	nominal := latency + sim.Duration(float64(msgBytes)/bandwidth)
	pt := CongestionPoint{
		Hosts:        hosts,
		Utilization:  link.Utilization(),
		MeanQueueing: link.MeanQueueing(),
	}
	pt.SlackInflation = float64(nominal+link.MeanQueueing()) / float64(nominal)
	return pt, nil
}
