package health

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
)

// Stream salts owned by the health control plane (see the salt table in
// internal/faults/faults.go). Per-server offsets keep every heartbeat
// stream independent, and none of these streams is shared with the
// transport, so monitoring never perturbs the fault schedule the workload
// draws.
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
	Server int
	To     State
	At     sim.Time
}

// Registry tracks the control plane's view of every server. Only the
// evaluator process writes the states and the transition log; the
// degraded count is a plain published scalar the serving admission gate
// samples read-only, and the global event order makes the sample
// deterministic.
type Registry struct {
	states []State
	// log holds the transitions in order while keep is set (see KeepLog).
	log  []Transition
	keep bool

	degraded int // servers not currently Healthy
}

func newRegistry(n int) *Registry {
	return &Registry{states: make([]State, n)}
}

// set transitions server i to state s, recording the change when the
// log is kept.
func (r *Registry) set(i int, s State, at sim.Time) {
	from := r.states[i]
	if from == s {
		return
	}
	r.states[i] = s
	if r.keep {
		r.log = append(r.log, Transition{Server: i, To: s, At: at})
	}
	if from == Healthy {
		r.degraded++
	}
	if s == Healthy {
		r.degraded--
	}
}

// StateOf returns the current state of server i.
func (r *Registry) StateOf(i int) State { return r.states[i] }

// KeepLog makes the registry record every later transition for Log. A run
// that never reads the log leaves it off and keeps no record per
// transition.
func (r *Registry) KeepLog() { r.keep = true }

// Log returns the transitions recorded since KeepLog, in order.
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
	// Live reports whether server i is in rotation (not dead or drained).
	Live(i int) bool
	// Drain takes server i out of rotation, migrating its handle table to
	// a live peer; it is an error when no live peer remains.
	Drain(p *sim.Proc, server int) error
	// Readmit returns a drained or dead server to rotation as a blank
	// standby.
	Readmit(server int) error
}

// Config tunes the control plane. Horizon is required; a zero Interval,
// JitterFrac or DropProbability takes the default its comment gives.
type Config struct {
	// Seed roots the beat-jitter and beat-loss substreams.
	Seed int64
	// Interval is the heartbeat period. Default 250 µs.
	Interval sim.Duration
	// JitterFrac widens each beat period by a uniform ±fraction, drawn
	// per server from a seeded stream, so beats from different servers do
	// not stay phase-locked. Default 0.1; negative disables jitter. Must
	// be below 1, so every period stays positive.
	JitterFrac float64
	// Horizon stops the monitor: no heartbeat is scheduled past it and
	// the evaluator exits at it, letting Env.Run drain. Required, and
	// finite.
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

const (
	// detectorWindow is the detector's inter-arrival sample window.
	detectorWindow = 16
	// suspectPhi is the φ threshold at which a server is suspected and
	// drained (≈3% chance the silence is benign).
	suspectPhi = 1.5
	// deadPhi is the φ threshold at which a suspected server is declared
	// dead and its detector history discarded.
	deadPhi = 4
	// recoverBeats is how many consecutive clean evaluator ticks a
	// recovered server must survive before readmission.
	recoverBeats = 3
)

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
	if c.DropProbability == 0 && inj != nil {
		c.DropProbability = inj.Config().DropProbability
	}
	if c.DropProbability < 0 {
		c.DropProbability = 0
	}
	return c
}

// validate rejects a config the callback chain could not run: every
// delay it schedules must be finite and non-negative, and the horizon
// must be finite so the beats stop. NaN fails every comparison, so each
// check is written to reject it.
func (c Config) validate() error {
	if !(c.Interval > 0) || math.IsInf(float64(c.Interval), 1) {
		return fmt.Errorf("health: heartbeat interval %v is not positive and finite", c.Interval)
	}
	if c.Horizon == 0 {
		return fmt.Errorf("health: monitoring horizon is required")
	}
	if !(c.Horizon > 0) || math.IsInf(float64(c.Horizon), 1) {
		return fmt.Errorf("health: monitoring horizon %v is not positive and finite", c.Horizon)
	}
	if !(c.JitterFrac < 1) {
		return fmt.Errorf("health: jitter fraction %g not below 1", c.JitterFrac)
	}
	if !(c.DropProbability < 1) {
		return fmt.Errorf("health: heartbeat drop probability %g not below 1", c.DropProbability)
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

// Controller runs the control plane: one heartbeat callback chain per
// server plus one evaluator process. Heartbeats consult the fault
// injector read-only (link state, server state) and draw loss and jitter
// from health-owned substreams; the evaluator walks the registry state
// machine and calls Drain/Readmit on the pool.
type Controller struct {
	env  *sim.Env
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
// cfg.Horizon. The heartbeats and the evaluator touch no workload state,
// so a run in which they never act is event-for-event identical, from
// the workload's point of view, to a run without them.
//
// Each server's heartbeat is a chain of callback events, since a beat
// only ever waits for time; the chains start in server order, ahead of
// the evaluator. The evaluator is a process, because Pool.Drain may
// block while it migrates a handle table.
func Start(env *sim.Env, pool Pool, inj *faults.Injector, cfg Config) (*Controller, error) {
	c, err := newController(env, pool, inj, cfg)
	if err != nil {
		return nil, err
	}
	for i := range c.det {
		b := &beat{c: c, i: i, jitter: faults.Substream(c.cfg.Seed, saltBeatJitter+uint64(i))}
		if c.cfg.DropProbability > 0 {
			b.drop = faults.Substream(c.cfg.Seed, saltBeatDrop+uint64(i))
		}
		b.arriveFn, b.sendFn, b.deliverFn = b.arrive, b.send, b.deliver
		env.After(0, b.next)
	}
	env.Spawn("health-eval", c.evaluate)
	return c, nil
}

// newController validates cfg and builds the controller's books without
// scheduling anything.
func newController(env *sim.Env, pool Pool, inj *faults.Injector, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults(inj)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := pool.Servers()
	if n < 1 {
		return nil, fmt.Errorf("health: pool has no servers")
	}
	if n > faults.SaltBlock {
		return nil, fmt.Errorf("health: pool has %d servers, above the per-server salt block (%d)", n, faults.SaltBlock)
	}
	c := &Controller{
		env:         env,
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
		c.det[i] = NewDetector(detectorWindow, cfg.Interval)
	}
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

// beat is server i's heartbeat stream until the horizon. A beat is lost
// when the fabric link is down, when the server is crashed, or when the
// loss coin says so; a stalled server delivers late (the beat waits out
// the stall). Delivered beats feed the detector after the path's
// transfer time. Each wait is an Env.After delay, and the callbacks are
// bound once as method values, so a beat allocates nothing.
type beat struct {
	c      *Controller
	i      int
	jitter *rand.Rand
	drop   *rand.Rand // nil when heartbeat loss is off

	arriveFn, sendFn, deliverFn func()
}

// next draws the next period and schedules the beat's arrival at the
// server's send point, unless that lies past the horizon.
func (b *beat) next() {
	c := b.c
	period := c.cfg.Interval
	if c.cfg.JitterFrac > 0 {
		period = sim.Duration(float64(period) * (1 + c.cfg.JitterFrac*(2*b.jitter.Float64()-1)))
	}
	if period > c.horizonLeft(c.env.Now()) {
		return
	}
	c.env.After(period, b.arriveFn)
}

// arrive is the beat's send point: a down link or a crashed server loses
// it, and a stalled server holds it until the stall ends.
func (b *beat) arrive() {
	c := b.c
	if c.inj != nil {
		now := c.env.Now()
		if down, _ := c.inj.LinkDown(now); down {
			c.stats.DroppedBeats++
			b.next()
			return
		}
		state, until := c.inj.Server(b.i).StateAt(now)
		switch state {
		case faults.Crashed:
			c.stats.DroppedBeats++
			b.next()
			return
		case faults.Stalled:
			if wait := until.Sub(now); wait > 0 {
				c.env.After(wait, b.sendFn)
				return
			}
		}
	}
	b.send()
}

// send flips the loss coin and puts a surviving beat on the path.
func (b *beat) send() {
	c := b.c
	if b.drop != nil && b.drop.Float64() < c.cfg.DropProbability {
		c.stats.DroppedBeats++
		b.next()
		return
	}
	if d := c.cfg.Path.TransferTime(heartbeatBytes); d > 0 {
		c.env.After(d, b.deliverFn)
		return
	}
	b.deliver()
}

// deliver feeds the beat to the server's detector and starts the next
// period.
func (b *beat) deliver() {
	c := b.c
	c.stats.Beats++
	c.det[b.i].Observe(c.env.Now())
	b.next()
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
		if afterTick != nil {
			afterTick(c)
		}
	}
}

// afterTick, when set, runs at the end of every evaluator tick. Tests
// hang the registry invariant check on it; it is nil otherwise.
var afterTick func(*Controller)

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
		if phi < suspectPhi {
			return
		}
		c.suspect(i, now)
		c.drain(p, i, now)
	case Suspect:
		if c.beatSince(i, c.suspectedAt[i]) {
			c.recover(i, now)
			return
		}
		if phi >= deadPhi {
			c.die(i, now)
			return
		}
		c.drain(p, i, now) // retry: a peer may have come back
	case Draining:
		if c.beatSince(i, c.suspectedAt[i]) {
			c.recover(i, now)
			return
		}
		if phi >= deadPhi {
			c.die(i, now)
		}
	case Dead:
		if c.beatSince(i, c.suspectedAt[i]) {
			c.recover(i, now)
		}
	case Recovered:
		if phi >= suspectPhi {
			c.stats.Deaths++
			c.clean[i] = 0
			c.det[i].Reset()
			c.reg.set(i, Dead, now)
			return
		}
		c.clean[i]++
		if c.clean[i] < recoverBeats {
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
