package health

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
)

// The reference heartbeat for FuzzHeartbeats: the process-based beat
// loop the callback chain in health.go replaced, kept byte for byte, so
// the fuzzer checks the chain against the loop itself rather than
// against a restatement of it.

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

// startRef is Start with one heartbeat process per server, spawned in
// server order ahead of the evaluator, as Start spawned them before the
// beats became callback chains.
func startRef(env *sim.Env, pool Pool, inj *faults.Injector, cfg Config) (*Controller, error) {
	c, err := newController(env, pool, inj, cfg)
	if err != nil {
		return nil, err
	}
	for i := range c.det {
		env.Spawn("health-beat-"+strconv.Itoa(i), func(p *sim.Proc) { c.heartbeat(p, i) })
	}
	env.Spawn("health-eval", c.evaluate)
	return c, nil
}

// poolCall is one Drain or Readmit the controller made on a fakePool.
type poolCall struct {
	drain  bool
	server int
	at     sim.Time
	ok     bool
}

// fakePool is a Pool that records every policy action. Drain refuses
// when no other server is live and otherwise blocks the evaluator for
// cost, standing in for the handle-table migration, before taking the
// server out of rotation.
type fakePool struct {
	env   *sim.Env
	live  []bool
	cost  sim.Duration
	calls []poolCall
}

func newFakePool(env *sim.Env, n int, cost sim.Duration) *fakePool {
	f := &fakePool{env: env, live: make([]bool, n), cost: cost}
	for i := range f.live {
		f.live[i] = true
	}
	return f
}

func (f *fakePool) Servers() int { return len(f.live) }

func (f *fakePool) Live(i int) bool { return f.live[i] }

func (f *fakePool) Drain(p *sim.Proc, server int) error {
	ok := false
	for i, l := range f.live {
		ok = ok || (l && i != server)
	}
	f.calls = append(f.calls, poolCall{drain: true, server: server, at: p.Now(), ok: ok})
	if !ok {
		return fmt.Errorf("fake pool: no live peer for server %d", server)
	}
	if f.cost > 0 {
		p.Sleep(f.cost)
	}
	f.live[server] = false
	return nil
}

func (f *fakePool) Readmit(server int) error {
	ok := !f.live[server]
	f.calls = append(f.calls, poolCall{server: server, at: f.env.Now(), ok: ok})
	if !ok {
		return fmt.Errorf("fake pool: server %d already live", server)
	}
	f.live[server] = true
	return nil
}

// beatRun is what FuzzHeartbeats compares between the implementations.
type beatRun struct {
	log   []Transition
	stats Stats
	// last, primed and mean are each detector's Last() and Mean().
	last   []sim.Time
	primed []bool
	mean   []sim.Duration
	calls  []poolCall
	// The engine's Scheduled, Delivered, Cancelled and PeakPending counts,
	// read after Run and before Close.
	engine [4]uint64
}

// beatCase is a decoded FuzzHeartbeats input.
type beatCase struct {
	servers   int
	drainCost sim.Duration
	cfg       Config
	faults    faults.Config
}

// Heartbeat program bytes, one knob each; missing bytes read as zero.
//
//	0: servers b%6+1; drain cost b/6%4 · 20 µs
//	1: interval (b%8+1) · 50 µs; jitter fraction b/8%4 of {off, default, 0.35, 0.9}
//	2: beat loss b%4 of {off, inherit, 0.05, 0.3}; injector message loss b/4%3 · 0.1
//	3: path latency b%4 of {0, 5, 40, 300} µs
//	4: crash churn: mean gap b%4 of {none, 2, 5, 10} ms; outage b/4%5 of {permanent, 0.5, 1, 2, 4} ms
//	5: stalls: mean gap b%4 of {none, 1, 3, 8} ms; length b/4%4 of {50, 200, 600, 1500} µs
//	6: link flaps: mean gap b%4 of {none, 2, 6, 15} ms; outage b/4%4 of {20, 100, 500, 2000} µs
//	7: horizon (b+1) · 100 µs
//	8: seed
func decodeBeatCase(data []byte) beatCase {
	b := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	us := func(n float64) sim.Duration { return sim.Duration(n) * sim.Microsecond }
	seed := int64(b(8))
	var bc beatCase
	bc.servers = b(0)%6 + 1
	bc.drainCost = us(float64(b(0) / 6 % 4 * 20))
	bc.cfg = Config{
		Seed:            seed,
		Interval:        us(float64(b(1)%8+1) * 50),
		JitterFrac:      []float64{-1, 0, 0.35, 0.9}[b(1)/8%4],
		DropProbability: []float64{-1, 0, 0.05, 0.3}[b(2)%4],
		Horizon:         us(float64(b(7)+1) * 100),
	}
	path, err := fabric.PathForSlack(us([]float64{0, 5, 40, 300}[b(3)%4]))
	if err != nil {
		panic(err)
	}
	bc.cfg.Path = path
	bc.faults = faults.Config{Seed: seed, DropProbability: float64(b(2)/4%3) * 0.1}
	if gap := []float64{0, 2000, 5000, 10000}[b(4)%4]; gap > 0 {
		bc.faults.CrashAfter = us(gap)
		bc.faults.CrashFor = us([]float64{0, 500, 1000, 2000, 4000}[b(4)/4%5])
	}
	if gap := []float64{0, 1000, 3000, 8000}[b(5)%4]; gap > 0 {
		bc.faults.StallEvery = us(gap)
		bc.faults.StallFor = us([]float64{50, 200, 600, 1500}[b(5)/4%4])
	}
	if gap := []float64{0, 2000, 6000, 15000}[b(6)%4]; gap > 0 {
		bc.faults.FlapEvery = us(gap)
		bc.faults.FlapOutage = us([]float64{20, 100, 500, 2000}[b(6)/4%4])
	}
	return bc
}

// runBeats runs a decoded case on the callback chain, or on the
// reference heartbeat processes when ref is set, checking the registry
// invariants after every evaluator tick.
func runBeats(t *testing.T, bc beatCase, ref bool) beatRun {
	t.Helper()
	checkEveryTick(t)
	env := sim.NewEnv()
	defer env.Close()
	inj, err := faults.NewInjector(bc.faults)
	if err != nil {
		t.Fatal(err)
	}
	pool := newFakePool(env, bc.servers, bc.drainCost)
	start := Start
	if ref {
		start = startRef
	}
	c, err := start(env, pool, inj, bc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Registry().KeepLog()
	env.Run()
	st := env.Stats()
	r := beatRun{
		log:    c.Registry().Log(),
		stats:  c.Stats(),
		calls:  pool.calls,
		engine: [4]uint64{st.Scheduled, st.Delivered, st.Cancelled, st.PeakPending},
	}
	for _, d := range c.det {
		last, ok := d.Last()
		r.last = append(r.last, last)
		r.primed = append(r.primed, ok)
		r.mean = append(r.mean, d.Mean())
	}
	return r
}

// FuzzHeartbeats runs random monitoring configurations — pool size,
// period and jitter, beat loss, path latency, and a fault schedule of
// crash churn, stalls and link flaps — on the callback-chain heartbeats
// and on the heartbeat processes they replaced, and requires the same
// registry transitions, controller stats, detector state, pool actions
// and engine event counts: each callback takes exactly the (time, seq)
// slot of the process wake-up it stands for.
func FuzzHeartbeats(f *testing.F) {
	// Seeds: a stall that delays beats; lost beats; a zero-latency path
	// with crash churn; a horizon shorter than one period; and everything
	// at once over six servers.
	f.Add([]byte{3, 9, 0, 1, 0, 1 + 4*2, 0, 60, 2})
	f.Add([]byte{2, 8, 3, 2, 0, 0, 0, 60, 5})
	f.Add([]byte{4, 8, 1, 0, 1 + 4*1, 0, 0, 120, 7})
	f.Add([]byte{2, 7, 0, 1, 0, 0, 0, 2, 1})
	f.Add([]byte{5 + 6*2, 2 + 8*3, 2 + 4*1, 2, 1 + 4*2, 2 + 4*1, 1 + 4*1, 200, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		bc := decodeBeatCase(data)
		got, want := runBeats(t, bc, false), runBeats(t, bc, true)
		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				t.Fatalf("transition %d: %+v, processes %+v", i, got.log[i], want.log[i])
			}
		}
		for i := range min(len(got.calls), len(want.calls)) {
			if got.calls[i] != want.calls[i] {
				t.Fatalf("pool call %d: %+v, processes %+v", i, got.calls[i], want.calls[i])
			}
		}
		if len(got.log) != len(want.log) || len(got.calls) != len(want.calls) {
			t.Fatalf("%d transitions and %d pool calls, processes %d and %d",
				len(got.log), len(got.calls), len(want.log), len(want.calls))
		}
		if got.stats != want.stats {
			t.Fatalf("stats %+v, processes %+v", got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.last, want.last) || !reflect.DeepEqual(got.primed, want.primed) ||
			!reflect.DeepEqual(got.mean, want.mean) {
			t.Fatalf("detectors last %v %v mean %v, processes %v %v %v",
				got.last, got.primed, got.mean, want.last, want.primed, want.mean)
		}
		if got.engine != want.engine {
			t.Fatalf("engine scheduled/delivered/cancelled/peak %v, processes %v", got.engine, want.engine)
		}
	})
}
