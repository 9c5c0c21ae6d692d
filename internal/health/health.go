package health

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
)

// Stream salts owned by the health control plane (see the salt ownership
// block in internal/faults/faults.go: faults holds the low range,
// remoting 0x10000+, serve 0x20000+, health 0x30000+). Per-server
// offsets keep every heartbeat stream independent, and none of these
// streams is shared with the transport, so monitoring never perturbs the
// fault schedule the workload draws.
const (
	saltBeatJitter uint64 = 0x30000 // + server id: heartbeat period jitter
	saltBeatDrop   uint64 = 0x31000 // + server id: heartbeat loss coin
)

// heartbeatBytes is the wire size of one heartbeat message; it only
// matters for the (tiny) serialization charge on the fabric path.
const heartbeatBytes = 64

// State is a pool-registry server state.
type State uint8

const (
	// Healthy servers are in rotation and beating on time.
	Healthy State = iota
	// Suspect servers have exceeded the suspicion threshold but could not
	// yet be drained (no live peer, or the pool refused).
	Suspect
	// Draining servers are suspected and have had their handle table
	// migrated to a healthy peer; they are out of rotation.
	Draining
	// Dead servers exceeded the death threshold; the detector history is
	// discarded so a reboot is judged afresh.
	Dead
	// Recovered servers have resumed beating after suspicion or death and
	// are accumulating clean beats before readmission.
	Recovered
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Draining:
		return "draining"
	case Dead:
		return "dead"
	case Recovered:
		return "recovered"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Transition is one registry state change, recorded in order.
type Transition struct {
	Server   int
	From, To State
	At       sim.Time
}

// Registry tracks the control plane's view of every server. Only the
// controller's processes write the states and the transition log; the
// degraded count is a plain published scalar the serving admission gate
// samples read-only, and the global event order makes the sample
// deterministic.
type Registry struct {
	states []State
	log    []Transition

	degraded int // servers not currently Healthy
}

func newRegistry(n int) *Registry {
	return &Registry{states: make([]State, n)}
}

// set transitions server i to state s, recording the change.
func (r *Registry) set(i int, s State, at sim.Time) {
	from := r.states[i]
	if from == s {
		return
	}
	r.states[i] = s
	r.log = append(r.log, Transition{Server: i, From: from, To: s, At: at})
	if from == Healthy {
		r.degraded++
	}
	if s == Healthy {
		r.degraded--
	}
}

// StateOf returns the current state of server i.
func (r *Registry) StateOf(i int) State { return r.states[i] }

// Log returns the recorded transitions in order.
func (r *Registry) Log() []Transition { return r.log }

// Degraded reports whether any server is currently not Healthy. The
// serving admission gate uses it as the capacity signal that arms load
// shedding.
func (r *Registry) Degraded() bool { return r.degraded > 0 }

// Pool is what the controller needs from the serving pool: rotation
// facts plus the two policy actions. *remoting.Resilient satisfies it.
type Pool interface {
	// Servers is the pool size (primary + standbys).
	Servers() int
	// ActiveServer is the index currently executing calls.
	ActiveServer() int
	// Live reports whether server i is in rotation (not dead or drained).
	Live(i int) bool
	// Drain takes server i out of rotation, migrating its handle table to
	// a live peer; it is an error when no live peer remains.
	Drain(p *sim.Proc, server int) error
	// Readmit returns a drained or dead server to rotation as a blank
	// standby.
	Readmit(server int) error
}

// Config tunes the control plane. The zero value takes defaults for
// every knob except Horizon, which is required.
type Config struct {
	// Seed roots the beat-jitter and beat-loss substreams.
	Seed int64
	// Interval is the heartbeat period. Default 250 µs.
	Interval sim.Duration
	// JitterFrac widens each beat period by a uniform ±fraction, drawn
	// per server from a seeded stream, so beats from different servers do
	// not stay phase-locked. Default 0.1; negative disables jitter.
	JitterFrac float64
	// Window is the detector's inter-arrival sample window. Default 16.
	Window int
	// SuspectPhi is the φ threshold at which a server is suspected and
	// drained. Default 1.5 (≈3% chance the silence is benign).
	SuspectPhi float64
	// DeadPhi is the φ threshold at which a suspected server is declared
	// dead and its detector history discarded. Default 4. Must exceed
	// SuspectPhi.
	DeadPhi float64
	// RecoverBeats is how many consecutive clean evaluator ticks a
	// recovered server must survive before readmission. Default 3.
	RecoverBeats int
	// Horizon stops the monitor: heartbeat and evaluator processes exit
	// at this sim time, letting Env.Run drain. Required.
	Horizon sim.Duration
	// Path is the fabric path heartbeats traverse; its latency and
	// serialization delay beat arrival. The zero Path is a valid
	// zero-latency path.
	Path fabric.Path
	// DropProbability is the chance a heartbeat is lost in transit, drawn
	// from health's own substream so the transport's fault draws are
	// untouched. Zero inherits the injector's message-drop probability;
	// negative disables heartbeat loss.
	DropProbability float64
}

func (c Config) withDefaults(inj *faults.Injector) Config {
	if c.Interval == 0 {
		c.Interval = 250 * sim.Microsecond
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.1
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0
	}
	if c.Window == 0 {
		c.Window = 16
	}
	if c.SuspectPhi == 0 {
		c.SuspectPhi = 1.5
	}
	if c.DeadPhi == 0 {
		c.DeadPhi = 4
	}
	if c.RecoverBeats == 0 {
		c.RecoverBeats = 3
	}
	if c.DropProbability == 0 && inj != nil {
		c.DropProbability = inj.Config().DropProbability
	}
	if c.DropProbability < 0 {
		c.DropProbability = 0
	}
	return c
}

func (c Config) validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("health: non-positive heartbeat interval %v", c.Interval)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("health: monitoring horizon is required")
	}
	if c.SuspectPhi <= 0 || c.DeadPhi <= c.SuspectPhi {
		return fmt.Errorf("health: need 0 < SuspectPhi (%g) < DeadPhi (%g)", c.SuspectPhi, c.DeadPhi)
	}
	if c.RecoverBeats < 1 {
		return fmt.Errorf("health: RecoverBeats %d < 1", c.RecoverBeats)
	}
	if c.DropProbability >= 1 {
		return fmt.Errorf("health: heartbeat drop probability %g >= 1", c.DropProbability)
	}
	if err := c.Path.Validate(); err != nil {
		return fmt.Errorf("health: %w", err)
	}
	return nil
}

// Stats aggregates what the control plane observed and did.
type Stats struct {
	// Beats counts heartbeats delivered; DroppedBeats counts beats lost
	// to link outages, server crashes, or the loss coin.
	Beats        int64
	DroppedBeats int64
	// Suspicions counts Healthy→Suspect transitions; FalseSuspicions the
	// subset raised while the server was not actually inside a crash
	// outage (jitter or beat loss alone crossed the threshold).
	Suspicions      int64
	FalseSuspicions int64
	// Drains, Deaths, Recoveries and Readmissions count the matching
	// registry transitions the controller drove.
	Drains       int64
	Deaths       int64
	Recoveries   int64
	Readmissions int64
	// DetectionCount/DetectionTotal/DetectionMax summarize true-positive
	// detection latency: outage start → suspicion, scored against the
	// injector's own schedule.
	DetectionCount int64
	DetectionTotal sim.Duration
	DetectionMax   sim.Duration
}

// MeanDetection returns the mean true-positive detection latency, or 0
// when nothing was detected.
func (s Stats) MeanDetection() sim.Duration {
	if s.DetectionCount == 0 {
		return 0
	}
	return s.DetectionTotal / sim.Duration(s.DetectionCount)
}

// Controller runs the control plane: one heartbeat process per server
// plus one evaluator. Heartbeats consult the
// fault injector read-only (link state, server state) and draw loss and
// jitter from health-owned substreams; the evaluator walks the registry
// state machine and calls Drain/Readmit on the pool.
type Controller struct {
	pool Pool
	inj  *faults.Injector
	cfg  Config
	reg  *Registry

	det         []*Detector
	clean       []int      // consecutive clean evaluator ticks per Recovered server
	suspectedAt []sim.Time // when the current suspicion episode began
	stats       Stats

	start sim.Time
}

// Start launches the control plane against pool, reading fault state
// from inj (which may be nil for a fault-free pool). Monitoring stops at
// cfg.Horizon. The controller's processes touch no workload state, so a
// run in which they never act is event-for-event identical, from the
// workload's point of view, to a run without them.
func Start(env *sim.Env, pool Pool, inj *faults.Injector, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults(inj)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := pool.Servers()
	if n < 1 {
		return nil, fmt.Errorf("health: pool has no servers")
	}
	c := &Controller{
		pool:        pool,
		inj:         inj,
		cfg:         cfg,
		reg:         newRegistry(n),
		det:         make([]*Detector, n),
		clean:       make([]int, n),
		suspectedAt: make([]sim.Time, n),
		start:       env.Now(),
	}
	for i := range c.det {
		c.det[i] = NewDetector(cfg.Window, cfg.Interval)
	}
	for i := 0; i < n; i++ {
		env.Spawn("health-beat-"+strconv.Itoa(i), func(p *sim.Proc) { c.heartbeat(p, i) })
	}
	env.Spawn("health-eval", c.evaluate)
	return c, nil
}

// Registry returns the controller's pool registry.
func (c *Controller) Registry() *Registry { return c.reg }

// Degraded reports whether the pool currently has a non-healthy server;
// it is the capacity signal the serving admission gate samples.
func (c *Controller) Degraded() bool { return c.reg.Degraded() }

// Stats returns a snapshot of the control plane's counters.
func (c *Controller) Stats() Stats { return c.stats }

// horizonLeft returns how much monitoring time remains at now.
func (c *Controller) horizonLeft(now sim.Time) sim.Duration {
	return c.start.Add(c.cfg.Horizon).Sub(now)
}

// heartbeat emits server i's beat stream until the horizon. A beat is
// lost when the fabric link is down, when the server is crashed, or when
// the loss coin says so; a stalled server delivers late (the beat waits
// out the stall). Delivered beats feed the detector after the path's
// transfer time.
func (c *Controller) heartbeat(p *sim.Proc, i int) {
	jitter := faults.Substream(c.cfg.Seed, saltBeatJitter+uint64(i))
	var drop *rand.Rand
	if c.cfg.DropProbability > 0 {
		drop = faults.Substream(c.cfg.Seed, saltBeatDrop+uint64(i))
	}
	for {
		period := c.cfg.Interval
		if c.cfg.JitterFrac > 0 {
			period = sim.Duration(float64(period) * (1 + c.cfg.JitterFrac*(2*jitter.Float64()-1)))
		}
		if period > c.horizonLeft(p.Now()) {
			return
		}
		p.Sleep(period)
		now := p.Now()
		if c.inj != nil {
			if down, _ := c.inj.LinkDown(now); down {
				c.stats.DroppedBeats++
				continue
			}
			state, until := c.inj.Server(i).StateAt(now)
			switch state {
			case faults.Crashed:
				c.stats.DroppedBeats++
				continue
			case faults.Stalled:
				if wait := until.Sub(now); wait > 0 {
					p.Sleep(wait)
				}
			}
		}
		if drop != nil && drop.Float64() < c.cfg.DropProbability {
			c.stats.DroppedBeats++
			continue
		}
		if d := c.cfg.Path.TransferTime(heartbeatBytes); d > 0 {
			p.Sleep(d)
		}
		c.stats.Beats++
		c.det[i].Observe(p.Now())
	}
}

// evaluate ticks the registry state machine once per heartbeat interval
// until the horizon.
func (c *Controller) evaluate(p *sim.Proc) {
	for {
		if c.cfg.Interval > c.horizonLeft(p.Now()) {
			return
		}
		p.Sleep(c.cfg.Interval)
		now := p.Now()
		for i := range c.det {
			c.step(p, i, now)
		}
	}
}

// step advances server i's state machine at time now.
//
//	Healthy   --φ≥suspect--> Suspect (score detection, try to drain)
//	Suspect   --drained----> Draining
//	Suspect/Draining --φ≥dead--> Dead (detector reset)
//	Suspect/Draining --beat------> Recovered
//	Dead      --beat-------> Recovered
//	Recovered --clean×N----> Healthy (readmit)
//	Recovered --φ≥suspect--> Dead (relapse)
func (c *Controller) step(p *sim.Proc, i int, now sim.Time) {
	phi := c.det[i].Phi(now)
	switch c.reg.StateOf(i) {
	case Healthy:
		if phi < c.cfg.SuspectPhi {
			return
		}
		c.suspect(i, now)
		c.drain(p, i, now)
	case Suspect:
		if c.beatSince(i, c.suspectedAt[i]) {
			c.recover(i, now)
			return
		}
		if phi >= c.cfg.DeadPhi {
			c.die(i, now)
			return
		}
		c.drain(p, i, now) // retry: a peer may have come back
	case Draining:
		if c.beatSince(i, c.suspectedAt[i]) {
			c.recover(i, now)
			return
		}
		if phi >= c.cfg.DeadPhi {
			c.die(i, now)
		}
	case Dead:
		if c.beatSince(i, c.suspectedAt[i]) {
			c.recover(i, now)
		}
	case Recovered:
		if phi >= c.cfg.SuspectPhi {
			c.stats.Deaths++
			c.clean[i] = 0
			c.det[i].Reset()
			c.reg.set(i, Dead, now)
			return
		}
		c.clean[i]++
		if c.clean[i] < c.cfg.RecoverBeats {
			return
		}
		if c.pool.Live(i) {
			// Never drained (no live peer at the time): nothing to readmit.
			c.reg.set(i, Healthy, now)
			return
		}
		if c.pool.Readmit(i) == nil {
			c.stats.Readmissions++
			c.reg.set(i, Healthy, now)
		}
	}
}

// suspect records a new suspicion episode and scores detection latency
// against the injector's own outage schedule.
func (c *Controller) suspect(i int, now sim.Time) {
	c.stats.Suspicions++
	c.suspectedAt[i] = now
	c.reg.set(i, Suspect, now)
	if c.inj == nil {
		c.stats.FalseSuspicions++
		return
	}
	if start, _, down := c.inj.Server(i).OutageAt(now); down {
		lat := now.Sub(start)
		c.stats.DetectionCount++
		c.stats.DetectionTotal += lat
		if lat > c.stats.DetectionMax {
			c.stats.DetectionMax = lat
		}
	} else {
		c.stats.FalseSuspicions++
	}
}

// drain tries to take a suspected server out of rotation; on success the
// server moves to Draining. Failure (no live peer, pool degraded) leaves
// it Suspect for a retry on the next tick.
func (c *Controller) drain(p *sim.Proc, i int, now sim.Time) {
	if err := c.pool.Drain(p, i); err != nil {
		return
	}
	c.stats.Drains++
	c.reg.set(i, Draining, now)
}

// die declares server i dead and discards its detector history, so the
// rebooted server's beat stream is judged against the prior.
func (c *Controller) die(i int, now sim.Time) {
	c.stats.Deaths++
	c.det[i].Reset()
	c.reg.set(i, Dead, now)
}

// recover marks a beat-resuming server Recovered and starts its clean
// streak.
func (c *Controller) recover(i int, now sim.Time) {
	c.stats.Recoveries++
	c.clean[i] = 0
	c.reg.set(i, Recovered, now)
}

// beatSince reports whether server i has delivered a beat after t.
func (c *Controller) beatSince(i int, t sim.Time) bool {
	last, ok := c.det[i].Last()
	return ok && last.Sub(t) > 0
}
