// Package faults is a deterministic fault-injection subsystem for the CDI
// fabric. It produces a seeded, sim-clock-driven schedule of fault events —
// packet loss, link flaps with outage windows, GPU-server stalls and
// permanent crashes, and degraded-bandwidth periods — that any fabric path
// or remoting transport can consult.
//
// Determinism is the design constraint: every fault decision is drawn from
// an explicit substream derived from (seed, salt) with math/rand/v2's PCG,
// one substream per concern. Consuming one stream (say, the packet-loss
// coin) can never perturb another (the flap schedule), so adding a fault
// class to a run leaves the others' event sequences byte-identical — the
// same property the repo's cdivet suite enforces for all randomness.
//
// The package never reads the wall clock and holds no global state; all
// queries are positional in virtual time (sim.Time), so a run replays
// exactly under any worker count.
package faults

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/sim"
)

// Stream salts: the one table of every seed-derived substream in the
// repository. Each package declares its own salts and points here.
//
//	0x00001–0x00004   faults: drop coin, flaps, degrade, backoff jitter
//	0x01000 + server  faults: per-server stall windows
//	0x02000 + server  faults: per-server crash time or outages
//	0x10000–0x10002   remoting: noise, injected arm, retry jitter
//	0x10010           slack: per-call jitter
//	0x10020           sched: WorkloadMix
//	0x20000 + tenant  serve: arrivals
//	0x21000 + tenant  serve: token lengths
//	0x30000 + server  health: heartbeat period jitter
//	0x31000 + server  health: heartbeat loss coin
//	0x40000–0x40003   pool: arrivals, lifetimes, gangs, shapes
const (
	saltDrop    uint64 = 0x01
	saltFlap    uint64 = 0x02
	saltDegrade uint64 = 0x03
	saltStall   uint64 = 0x1000 // + server id
	saltCrash   uint64 = 0x2000 // + server id

	// SaltBlock is the width of every per-index block above. Its owner
	// keeps the index below it: index SaltBlock of one block would be
	// index 0 of the next.
	SaltBlock = 0x1000
)

// Substream returns an independent deterministic random stream derived
// from a base seed and a stream-identifying salt. Two substreams with
// different salts are statistically independent and positionally isolated:
// draws from one never advance the other.
func Substream(seed int64, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), salt))
}

// SubstreamIn builds the stream Substream(seed, salt) returns in storage
// the caller owns: it seeds *src and binds *r to it, allocating nothing,
// so a slice of streams costs its owner one allocation. *r draws through
// src, so *src must stay where it is while *r is in use.
func SubstreamIn(r *rand.Rand, src *rand.PCG, seed int64, salt uint64) {
	*src = *rand.NewPCG(uint64(seed), salt)
	*r = *rand.New(src)
}

// SubSeed derives a non-negative int64 seed from (seed, salt), for APIs
// that accept a seed rather than a stream (e.g. slack.WithJitter).
func SubSeed(seed int64, salt uint64) int64 {
	return int64(rand.NewPCG(uint64(seed), salt).Uint64() >> 1)
}

// Config is a fault schedule. The zero value (and any config whose rates
// are all zero) injects nothing. "Every" fields are mean intervals of an
// exponential (Poisson) process; the matching "For"/"Outage" fields are
// the fixed duration of each event.
type Config struct {
	// Seed roots every substream of the schedule.
	Seed int64

	// DropProbability is the chance, in [0, 1), that any single message
	// (request or response) is lost in transit.
	DropProbability float64

	// FlapEvery is the mean interval between link-flap outages on the
	// host↔chassis path; zero disables flaps. FlapOutage is how long each
	// outage lasts; messages sent during an outage are lost.
	FlapEvery  sim.Duration
	FlapOutage sim.Duration

	// StallEvery is the mean interval between GPU-server stalls (driver
	// hiccup, ECC scrub, preemption); zero disables stalls. StallFor is
	// the stall length; requests arriving mid-stall wait it out.
	StallEvery sim.Duration
	StallFor   sim.Duration

	// CrashAfter is the mean time until a GPU server crashes
	// (exponential); zero means servers never crash. With CrashFor zero
	// the crash is permanent: drawn once per server, the server stops
	// responding forever. With CrashFor positive, crashes become a
	// recurring churn process instead: outage windows of length CrashFor
	// separated by exponential gaps of mean CrashAfter, during which the
	// server is down but after which it comes back blank (rebooted) —
	// the GPU churn regime the pool control plane exists for.
	CrashAfter sim.Duration
	CrashFor   sim.Duration

	// DegradeEvery is the mean interval between degraded-bandwidth
	// periods on the path (congestion, retransmit storms); zero disables
	// them. During a period of length DegradeFor, payload serialization
	// runs at DegradeFactor (in (0, 1]) of nominal bandwidth.
	DegradeEvery  sim.Duration
	DegradeFor    sim.Duration
	DegradeFactor float64
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.DropProbability < 0 || c.DropProbability >= 1 {
		return fmt.Errorf("faults: drop probability %g outside [0, 1)", c.DropProbability)
	}
	if c.FlapEvery < 0 || c.FlapOutage < 0 || c.StallEvery < 0 || c.StallFor < 0 ||
		c.CrashAfter < 0 || c.CrashFor < 0 || c.DegradeEvery < 0 || c.DegradeFor < 0 {
		return fmt.Errorf("faults: negative interval in %+v", c)
	}
	if c.CrashFor > 0 && c.CrashAfter == 0 {
		return fmt.Errorf("faults: crash churn enabled with no crash rate")
	}
	if c.FlapEvery > 0 && c.FlapOutage == 0 {
		return fmt.Errorf("faults: flaps enabled with zero outage duration")
	}
	if c.StallEvery > 0 && c.StallFor == 0 {
		return fmt.Errorf("faults: stalls enabled with zero stall duration")
	}
	if c.DegradeEvery > 0 && (c.DegradeFor == 0 || c.DegradeFactor <= 0 || c.DegradeFactor > 1) {
		return fmt.Errorf("faults: degradation enabled with duration %v, factor %g", c.DegradeFor, c.DegradeFactor)
	}
	return nil
}

// Enabled reports whether the schedule can produce any fault at all.
func (c Config) Enabled() bool {
	return c.DropProbability > 0 || c.FlapEvery > 0 || c.StallEvery > 0 ||
		c.CrashAfter > 0 || c.DegradeEvery > 0
}

// AtIntensity returns the canonical schedule the resilience experiment
// sweeps: level 0 is fault-free, level 1 a plausibly unhealthy row-scale
// fabric, and higher levels scale every event rate linearly (event
// durations stay fixed — more faults, not longer ones).
func AtIntensity(level float64, seed int64) Config {
	if level <= 0 {
		return Config{Seed: seed}
	}
	return Config{
		Seed:            seed,
		DropProbability: min(0.02*level, 0.5),
		FlapEvery:       sim.Duration(float64(80*sim.Millisecond) / level),
		FlapOutage:      200 * sim.Microsecond,
		StallEvery:      sim.Duration(float64(50*sim.Millisecond) / level),
		StallFor:        150 * sim.Microsecond,
		CrashAfter:      sim.Duration(float64(10*sim.Second) / level),
		DegradeEvery:    sim.Duration(float64(60*sim.Millisecond) / level),
		DegradeFor:      500 * sim.Microsecond,
		DegradeFactor:   0.25,
	}
}

// Injector evaluates one fault schedule against virtual time. It is bound
// to a single simulation run: queries must be issued at non-decreasing
// sim.Time (which any in-sim caller does for free).
type Injector struct {
	cfg     Config
	drop    *rand.Rand
	link    *windows
	degrade *windows
	servers []*Server
}

// NewInjector builds an injector for the schedule.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		cfg:     cfg,
		drop:    Substream(cfg.Seed, saltDrop),
		link:    newWindows(Substream(cfg.Seed, saltFlap), cfg.FlapEvery, cfg.FlapOutage),
		degrade: newWindows(Substream(cfg.Seed, saltDegrade), cfg.DegradeEvery, cfg.DegradeFor),
	}, nil
}

// Config returns the schedule the injector evaluates.
func (in *Injector) Config() Config { return in.cfg }

// DropsMessage draws one message-loss decision from the loss stream.
func (in *Injector) DropsMessage() bool {
	if in.cfg.DropProbability <= 0 {
		return false
	}
	return in.drop.Float64() < in.cfg.DropProbability
}

// LinkDown reports whether the host↔chassis link is inside a flap outage
// at t and, if so, when the outage ends.
func (in *Injector) LinkDown(t sim.Time) (bool, sim.Time) { return in.link.at(t) }

// BandwidthFactor returns the serialization-bandwidth multiplier at t:
// 1 normally, Config.DegradeFactor inside a degraded period.
func (in *Injector) BandwidthFactor(t sim.Time) float64 {
	if down, _ := in.degrade.at(t); down {
		return in.cfg.DegradeFactor
	}
	return 1
}

// ServerState classifies a GPU server's health at an instant.
type ServerState int

const (
	// Healthy servers process requests normally.
	Healthy ServerState = iota
	// Stalled servers finish requests only after the stall window ends.
	Stalled
	// Crashed servers never respond again.
	Crashed
)

// String names the state.
func (s ServerState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Stalled:
		return "stalled"
	case Crashed:
		return "crashed"
	default:
		return fmt.Sprintf("ServerState(%d)", int(s))
	}
}

// Server is the deterministic fault state of one GPU server. Each server
// id sees an independent stall schedule and crash time, both salted by id,
// so adding a standby never shifts the primary's schedule.
type Server struct {
	stalls  *windows
	crashes bool
	crashAt sim.Time
	churn   *windows // non-nil when CrashFor > 0: recurring crash outages
}

// Server returns the fault state for server id (0 = primary, 1+ =
// standbys), creating state for all ids up to it on first use. Ids at or
// above SaltBlock alias the streams of lower ids, so callers bound their
// server counts by it.
func (in *Injector) Server(id int) *Server {
	for len(in.servers) <= id {
		i := uint64(len(in.servers))
		s := &Server{
			stalls: newWindows(Substream(in.cfg.Seed, saltStall+i), in.cfg.StallEvery, in.cfg.StallFor),
		}
		if in.cfg.CrashAfter > 0 {
			if in.cfg.CrashFor > 0 {
				s.churn = newWindows(Substream(in.cfg.Seed, saltCrash+i), in.cfg.CrashAfter, in.cfg.CrashFor)
			} else {
				r := Substream(in.cfg.Seed, saltCrash+i)
				s.crashes = true
				s.crashAt = sim.Time(0).Add(sim.Duration(r.ExpFloat64() * float64(in.cfg.CrashAfter)))
			}
		}
		in.servers = append(in.servers, s)
	}
	return in.servers[id]
}

// StateAt returns the server's state at t; for Stalled it also returns
// when the stall ends, and for a churn (recurring) crash when the outage
// ends. A permanent crash returns zero: it never ends.
func (s *Server) StateAt(t sim.Time) (ServerState, sim.Time) {
	if s.crashes && t >= s.crashAt {
		return Crashed, 0
	}
	if s.churn != nil {
		if down, until := s.churn.at(t); down {
			return Crashed, until
		}
	}
	if down, until := s.stalls.at(t); down {
		return Stalled, until
	}
	return Healthy, 0
}

// OutageAt reports whether the server is inside a crash outage at t and,
// if so, the outage's start (for permanent crashes the start is the crash
// instant and the end is zero: the outage never ends). Experiments use
// it to score detection latency — how long after an outage began the
// control plane noticed — without the detector ever peeking at the
// schedule. Like every schedule query it must be called at non-decreasing
// times.
func (s *Server) OutageAt(t sim.Time) (start, end sim.Time, down bool) {
	if s.crashes && t >= s.crashAt {
		return s.crashAt, 0, true
	}
	if s.churn != nil {
		if sp, ok := s.churn.window(t); ok {
			return sp.start, sp.end, true
		}
	}
	return 0, 0, false
}
