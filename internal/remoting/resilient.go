package remoting

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/cuda"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// Stream salts for seed-derived substreams (see the salt table in
// internal/faults/faults.go).
const (
	// saltNoise seeds network-traversal noise.
	saltNoise uint64 = 0x10000
	// saltInjectedArm seeds the controlled-injection arm of Compare.
	saltInjectedArm uint64 = 0x10001
	// saltRetryJitter seeds the resilient transport's backoff jitter.
	saltRetryJitter uint64 = 0x10002
)

// ResilientConfig shapes the fault-tolerant transport: the base remoting
// config plus a fault schedule, a retry/failover policy, and the standby
// topology.
type ResilientConfig struct {
	Config
	// Faults is the deterministic fault schedule the transport runs under.
	Faults faults.Config
	// Policy is the retry/failover discipline; zero fields take defaults.
	Policy faults.Policy
	// Standbys is the number of standby GPU servers provisioned for
	// failover (0 = none).
	Standbys int
	// DisableLocalFallback turns off graceful degradation to node-local
	// execution; with it set, exhausting every remote is a hard error.
	DisableLocalFallback bool
}

// Stats aggregates what the resilience machinery did during a run.
type Stats struct {
	// Calls counts logical API calls issued through the transport.
	Calls int64
	// Retries, Timeouts, Failovers and BreakerTrips count policy actions;
	// a trip opens the breaker but no longer implies a failover (see the
	// half-open counters below).
	Retries      int64
	Timeouts     int64
	Failovers    int64
	BreakerTrips int64
	// HalfOpenProbes counts the single attempts let through after a
	// breaker cooldown; HalfOpenRecoveries counts probes that succeeded
	// and closed the breaker on the same server (no failover paid).
	HalfOpenProbes     int64
	HalfOpenRecoveries int64
	// Migrations counts policy-triggered drains that moved the handle
	// table to a peer (crash-triggered failovers count under Failovers);
	// Readmissions counts drained or dead servers returned to duty.
	Migrations   int64
	Readmissions int64
	// ReuploadBytes is the device state replayed onto a new server (or the
	// local device) as DMA transfers during failover.
	ReuploadBytes int64
	// Degraded records that every remote died and the transport fell back
	// to node-local execution.
	Degraded bool
}

// execResult is what a server-side call body produces.
type execResult struct {
	err error
}

// endpoint is one GPU server (or the node-local fallback device).
type endpoint struct {
	dev *gpu.Device
	ctx *cuda.Context
	srv *faults.Server // nil for the node-local device
	// done replays completed non-idempotent requests by id: a retried
	// malloc/free whose response was lost must not execute twice.
	done map[uint64]execResult
	// phys maps the transport's virtual handles to this server's pointers.
	phys map[gpu.Ptr]gpu.Ptr
	dead bool
	// drained marks a server taken out of rotation by policy (the pool
	// control plane's Drain); unlike dead it is reversible via Readmit.
	drained bool
}

// Resilient is a fault-tolerant remoting transport: per-call deadlines on
// sim.Signal.WaitTimeout, bounded retries with deterministic exponential
// backoff and seeded jitter, idempotence-aware replay (memcpy/launch
// re-execute; malloc/free deduplicate by request id), a consecutive-
// timeout circuit breaker, failover to standby GPU servers with state
// re-upload modeled as DMA replays, and graceful degradation to
// node-local execution when no remote survives.
//
// The per-attempt deadline covers the nominal wire time plus
// ServerOverhead, not the call's execution on the server: a call that
// outlasts Policy.CallTimeout (a long kernel, a large copy) times out and
// fails over even with no fault active. A transport meant to measure the
// fabric alone, like Compare's, sets an unbounded CallTimeout.
//
// Memory handles returned by Malloc are virtual: they survive failover,
// being re-bound to the new server's allocations during state re-upload.
type Resilient struct {
	env  *sim.Env
	cfg  ResilientConfig
	pol  faults.Policy
	inj  *faults.Injector
	spec gpu.Spec // endpoint device spec, kept so Readmit can rebuild one

	eps    []*endpoint // 0 = primary, 1.. = standbys
	active int
	local  *endpoint // node-local fallback (nil when disabled)

	noise  *rand.Rand
	jitter *rand.Rand

	nextHandle gpu.Ptr
	table      *HandleTable // live virtual handles in allocation order
	nextReq    uint64

	consecTimeouts int
	degraded       bool
	exhausted      error // set once no executor remains; fails calls fast
	stats          Stats
	// netTime sums every network crossing (see MeanCallDelay); it is not
	// in Stats, whose printed form the serving goldens pin.
	netTime sim.Duration

	// attempts lists, through attemptState.next, the attempt states that
	// no host or server process holds any more.
	attempts *attemptState
}

// NewResilient builds the transport with a primary server, cfg.Standbys
// standby servers, and (unless disabled) a node-local fallback device, all
// of the given spec.
func NewResilient(env *sim.Env, spec gpu.Spec, cfg ResilientConfig) (*Resilient, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Standbys < 0 {
		return nil, fmt.Errorf("remoting: negative standby count %d", cfg.Standbys)
	}
	if cfg.Standbys+1 > faults.SaltBlock {
		return nil, fmt.Errorf("remoting: %d standbys plus the primary exceed the per-server salt block (%d)", cfg.Standbys, faults.SaltBlock)
	}
	if cfg.ServerOverhead == 0 {
		cfg.ServerOverhead = DefaultServerOverhead
	}
	inj, err := faults.NewInjector(cfg.Faults)
	if err != nil {
		return nil, err
	}
	r := &Resilient{
		env:    env,
		cfg:    cfg,
		pol:    cfg.Policy.WithDefaults(),
		inj:    inj,
		spec:   spec,
		noise:  faults.Substream(cfg.Seed, saltNoise),
		jitter: faults.Substream(cfg.Seed, saltRetryJitter),
		table:  NewHandleTable(),
	}
	for i := 0; i <= cfg.Standbys; i++ {
		dev, err := gpu.NewDevice(env, spec)
		if err != nil {
			return nil, err
		}
		r.eps = append(r.eps, &endpoint{
			dev:  dev,
			ctx:  cuda.NewContext(dev, cuda.Config{}),
			srv:  inj.Server(i),
			done: map[uint64]execResult{},
			phys: map[gpu.Ptr]gpu.Ptr{},
		})
	}
	if !cfg.DisableLocalFallback {
		dev, err := gpu.NewDevice(env, spec)
		if err != nil {
			return nil, err
		}
		r.local = &endpoint{
			dev:  dev,
			ctx:  cuda.NewContext(dev, cuda.Config{}),
			phys: map[gpu.Ptr]gpu.Ptr{},
		}
	}
	return r, nil
}

// Stats returns a snapshot of the resilience counters.
func (r *Resilient) Stats() Stats { return r.stats }

// Degraded reports whether the transport has fallen back to node-local
// execution.
func (r *Resilient) Degraded() bool { return r.degraded }

// Servers returns how many GPU servers the transport was provisioned
// with (primary plus standbys).
func (r *Resilient) Servers() int { return len(r.eps) }

// Live reports whether server i is currently in rotation (neither dead
// nor drained).
func (r *Resilient) Live(i int) bool {
	return i >= 0 && i < len(r.eps) && !r.eps[i].dead && !r.eps[i].drained
}

// MeanCallDelay returns the average network time per logical call — the
// quantity the slack injector controls exactly and remoting only
// approximates.
func (r *Resilient) MeanCallDelay() sim.Duration {
	if r.stats.Calls == 0 {
		return 0
	}
	return r.netTime / sim.Duration(r.stats.Calls)
}

// Injector exposes the transport's fault injector, so a control plane
// monitoring the same pool consults the identical schedule.
func (r *Resilient) Injector() *faults.Injector { return r.inj }

// transfer returns one network crossing's duration for n payload bytes,
// applying the degraded-bandwidth factor to the serialization term and
// the seeded noise multiplier to the whole crossing.
func (r *Resilient) transfer(n int64, bwFactor float64) sim.Duration {
	lat := r.cfg.Path.Latency()
	d := r.cfg.Path.TransferTime(n)
	if bwFactor > 0 && bwFactor < 1 {
		d = lat + sim.Duration(float64(d-lat)/bwFactor)
	}
	if r.cfg.NoiseFraction > 0 {
		d = sim.Duration(float64(d) * (1 + r.cfg.NoiseFraction*(2*r.noise.Float64()-1)))
	}
	r.netTime += d
	return d
}

// deadline returns the per-attempt deadline for a call shape: the nominal
// round trip (with worst-case noise) plus the policy's timeout allowance.
// Server-side execution is not included (see Resilient).
func (r *Resilient) deadline(reqBytes, respBytes int64) sim.Duration {
	rtt := r.cfg.Path.TransferTime(reqBytes) + r.cfg.Path.TransferTime(respBytes)
	if r.cfg.ServerOverhead > 0 {
		rtt += r.cfg.ServerOverhead
	}
	return sim.Duration(float64(rtt)*(1+r.cfg.NoiseFraction)) + r.pol.CallTimeout
}

// callKind selects the body a call runs on its executor.
type callKind uint8

const (
	callMalloc callKind = iota
	callFree
	callH2D
	callD2H
	callLaunch
	callSync
)

// callSpec describes one API call to the retry machinery.
type callSpec struct {
	// srv names the per-attempt server process. It is a constant per call
	// kind, so an attempt formats no string; names only feed Env.Blocked.
	srv                 string
	reqBytes, respBytes int64
	// dedup marks calls that must not execute twice (malloc/free): a
	// retry replays the recorded result instead of re-running exec.
	dedup bool
	kind  callKind
	// h, n and k are the call's arguments, as its kind uses them: the
	// virtual handle, the byte count and the kernel.
	h gpu.Ptr
	n int64
	k gpu.Kernel
}

// exec runs the call's body on ep.
func (cs *callSpec) exec(sp *sim.Proc, ep *endpoint) execResult {
	switch cs.kind {
	case callMalloc:
		ptr, err := ep.ctx.Malloc(sp, cs.n)
		if err == nil {
			ep.phys[cs.h] = ptr
		}
		return execResult{err: err}
	case callFree:
		ptr, ok := ep.phys[cs.h]
		if !ok {
			return execResult{err: fmt.Errorf("%w: unknown handle %d", cuda.ErrInvalidValue, cs.h)}
		}
		delete(ep.phys, cs.h)
		return execResult{err: ep.ctx.Free(sp, ptr)}
	case callH2D:
		return execResult{err: ep.ctx.MemcpyH2D(sp, ep.phys[cs.h], cs.n)}
	case callD2H:
		return execResult{err: ep.ctx.MemcpyD2H(sp, ep.phys[cs.h], cs.n)}
	case callLaunch:
		ep.ctx.LaunchSync(sp, cs.k, nil)
	case callSync:
		ep.ctx.DeviceSynchronize(sp)
	}
	return execResult{}
}

// call drives one API call through deadlines, retries, the breaker, and
// failover. The returned error is a transport-level failure (no executor
// left); API-level errors ride in execResult.err.
func (r *Resilient) call(p *sim.Proc, cs callSpec) (execResult, error) {
	if r.exhausted != nil {
		return execResult{}, r.exhausted // breaker open: fail fast
	}
	r.stats.Calls++
	if r.degraded {
		return cs.exec(p, r.local), nil
	}
	reqID := r.nextReq
	r.nextReq++
	retries := 0
	for {
		res, ok := r.attempt(p, r.eps[r.active], reqID, cs)
		if ok {
			r.consecTimeouts = 0
			return res, nil
		}
		r.stats.Timeouts++
		r.consecTimeouts++
		tripped := r.pol.BreakerThreshold > 0 && r.consecTimeouts >= r.pol.BreakerThreshold
		if tripped {
			// Breaker open: cool down, then let a single half-open probe
			// through. A success means the fault window ended during the
			// cooldown — close the breaker on the same server and pay no
			// failover; a failure re-opens it for good.
			r.stats.BreakerTrips++
			r.consecTimeouts = 0
			if r.pol.BreakerCooldown > 0 {
				p.Sleep(r.pol.BreakerCooldown)
			}
			r.stats.HalfOpenProbes++
			if res, ok = r.attempt(p, r.eps[r.active], reqID, cs); ok {
				r.stats.HalfOpenRecoveries++
				return res, nil
			}
			r.stats.Timeouts++
		}
		if tripped || retries >= r.pol.MaxRetries {
			if err := r.failover(p); err != nil {
				r.exhausted = err
				return execResult{}, err
			}
			if r.degraded {
				return cs.exec(p, r.local), nil
			}
			retries = 0
			continue
		}
		retries++
		r.stats.Retries++
		p.Sleep(r.pol.Backoff(retries, r.jitter))
	}
}

// attempt plays one request/response exchange: the request crosses the
// fabric (unless the link is down or the packet is lost), a server
// process executes the body after any stall, and the response crosses
// back. The host waits on the attempt's signal with a deadline — the
// sim.Signal.WaitTimeout the whole transport is built on. A response that
// arrives after the deadline fires into an abandoned signal, which is a
// no-op; the dedup cache keeps such orphaned executions idempotent.
func (r *Resilient) attempt(p *sim.Proc, ep *endpoint, reqID uint64, cs callSpec) (execResult, bool) {
	now := p.Now()
	lost := false
	if down, _ := r.inj.LinkDown(now); down {
		lost = true
	}
	if !lost && r.inj.DropsMessage() {
		lost = true // request lost in transit
	}
	a := r.newAttempt()
	if !lost {
		a.ep, a.reqID, a.cs = ep, reqID, cs
		a.reqTransfer = r.transfer(cs.reqBytes, r.inj.BandwidthFactor(now))
		a.refs++
		r.env.Spawn(cs.srv, a.body)
	}
	err := a.done.WaitTimeout(p, r.deadline(cs.reqBytes, cs.respBytes))
	res := a.res
	r.release(a)
	if err != nil {
		return execResult{}, false
	}
	return res, true
}

// attemptState is what one attempt's host and server process share: the
// signal the host waits on, the response, and the request the server
// runs. States are recycled, and each counts its holders (the host, and
// the server process if the request left the host). A state goes back to
// the free list only when both have let go, so a server that outlives
// its host's deadline fires into a state no later attempt owns.
type attemptState struct {
	r           *Resilient
	done        sim.Signal
	res         execResult
	ep          *endpoint
	reqID       uint64
	cs          callSpec
	reqTransfer sim.Duration
	body        func(*sim.Proc) // serve, bound once per state
	refs        int
	next        *attemptState // the next free state on Resilient.attempts
}

// newAttempt returns a state held by the calling host alone.
func (r *Resilient) newAttempt() *attemptState {
	a := r.attempts
	if a != nil {
		r.attempts = a.next
	} else {
		a = &attemptState{r: r}
		a.done.Bind(r.env)
		a.body = a.serve
	}
	a.refs = 1
	return a
}

// release lets go of one holder's reference to a, and recycles a once
// neither the host nor the server holds it.
func (r *Resilient) release(a *attemptState) {
	a.refs--
	if a.refs > 0 {
		return
	}
	a.res, a.ep, a.cs = execResult{}, nil, callSpec{}
	a.next, r.attempts = r.attempts, a
}

// serve is an attempt's server process: it answers the request, wakes the
// host if the response gets through, and lets go of the state.
func (a *attemptState) serve(sp *sim.Proc) {
	if a.respond(sp) {
		a.done.Fire()
	}
	a.r.release(a)
}

// respond plays the server side of an attempt: the request's transfer,
// any stall, the server overhead, the body (or its recorded result) and
// the response's transfer. It reports whether the response reaches the
// host, and records it in a.res if so.
func (a *attemptState) respond(sp *sim.Proc) bool {
	r, ep := a.r, a.ep
	sp.Sleep(a.reqTransfer)
	if ep.srv != nil {
		switch state, until := ep.srv.StateAt(sp.Now()); state {
		case faults.Crashed:
			ep.dev.MarkLost() // device-lost error surface
			return false      // no response, ever
		case faults.Stalled:
			sp.Sleep(until.Sub(sp.Now()))
		}
	}
	if r.cfg.ServerOverhead > 0 {
		sp.Sleep(r.cfg.ServerOverhead)
	}
	out, seen := ep.done[a.reqID]
	if !seen {
		out = a.cs.exec(sp, ep)
		if a.cs.dedup {
			ep.done[a.reqID] = out
		}
	}
	respLost := false
	if down, _ := r.inj.LinkDown(sp.Now()); down {
		respLost = true
	}
	if !respLost && r.inj.DropsMessage() {
		respLost = true
	}
	sp.Sleep(r.transfer(a.cs.respBytes, r.inj.BandwidthFactor(sp.Now())))
	if respLost {
		return false
	}
	a.res = out
	return true
}

// failover abandons the active server (marking its device lost), picks
// the next live standby — or degrades to node-local execution — and
// replays all live device state onto the new executor: a control-plane
// re-attach penalty plus one malloc + DMA H2D per allocation.
func (r *Resilient) failover(p *sim.Proc) error {
	r.stats.Failovers++
	r.consecTimeouts = 0
	cur := r.eps[r.active]
	cur.dead = true
	cur.dev.MarkLost()

	next := r.nextLive(r.active)
	if next >= 0 {
		r.active = next
		return r.migrate(p, r.eps[next], true)
	}
	if r.local == nil {
		return fmt.Errorf("remoting: no standby left after %d failovers: %w",
			r.stats.Failovers, cuda.ErrDeviceLost)
	}
	r.degraded = true
	r.stats.Degraded = true
	return r.migrate(p, r.local, false)
}

// nextLive returns the index of the next endpoint in rotation after
// `from` (circular, so a readmitted low-index server is reachable again),
// or -1 when none is live.
func (r *Resilient) nextLive(from int) int {
	n := len(r.eps)
	for k := 1; k <= n; k++ {
		i := (from + k) % n
		if i != from && !r.eps[i].dead && !r.eps[i].drained {
			return i
		}
	}
	return -1
}

// Drain takes a server out of rotation by policy rather than crash — the
// pool control plane's reaction to a suspect heartbeat. If the server is
// the active executor, its handle table is live-migrated to the next live
// peer over the same DMA-replay path failover uses; the executor switch
// happens after the migration completes, so calls issued meanwhile still
// target the old server (and failover reactively if it is truly gone).
// Unlike failover the drained server's device is not marked lost: Readmit
// can return it to duty. Draining a standby only removes it from the
// failover candidate set; draining the last live server is refused.
func (r *Resilient) Drain(p *sim.Proc, server int) error {
	if server < 0 || server >= len(r.eps) {
		return fmt.Errorf("remoting: drain of unknown server %d", server)
	}
	if r.degraded || r.exhausted != nil {
		return fmt.Errorf("remoting: drain with no remote pool live")
	}
	ep := r.eps[server]
	if ep.dead || ep.drained {
		return nil
	}
	if server != r.active {
		ep.drained = true
		return nil
	}
	next := r.nextLive(server)
	if next < 0 {
		return fmt.Errorf("remoting: no live peer to drain server %d onto", server)
	}
	ep.drained = true
	r.stats.Migrations++
	if err := r.migrate(p, r.eps[next], true); err != nil {
		return err
	}
	if r.active == server {
		// The breaker may have failed the caller over on its own while the
		// migration was in flight; only switch if it has not.
		r.active = next
	}
	return nil
}

// ErrReadmitRefused is Readmit's answer once the transport is exhausted or
// degraded to node-local. It is one value, so a control plane that
// retries readmission on every tick allocates nothing per refusal.
var ErrReadmitRefused = errors.New("remoting: readmit after the pool was exhausted")

// Readmit returns a previously drained or dead server to standby duty as
// a blank replacement — a rebooted host or a fresh part swapped into the
// chassis: a new device and context, an empty handle table, the same
// fault-schedule identity. The transport's virtual handles keep the host
// the source of truth, so the next migration onto it re-uploads whatever
// it needs. Once the transport is exhausted or degraded to node-local,
// readmission is refused with ErrReadmitRefused (the run has already
// failed over for good).
func (r *Resilient) Readmit(server int) error {
	if server < 0 || server >= len(r.eps) {
		return fmt.Errorf("remoting: readmit of unknown server %d", server)
	}
	if r.exhausted != nil || r.degraded {
		return ErrReadmitRefused
	}
	ep := r.eps[server]
	if !ep.dead && !ep.drained {
		return nil
	}
	if server == r.active {
		return fmt.Errorf("remoting: server %d is active and cannot be readmitted", server)
	}
	dev, err := gpu.NewDevice(r.env, r.spec)
	if err != nil {
		return err
	}
	ep.dev = dev
	ep.ctx = cuda.NewContext(dev, cuda.Config{})
	clear(ep.done)
	clear(ep.phys)
	ep.dead, ep.drained = false, false
	r.stats.Readmissions++
	return nil
}

// migrate re-attaches on ep and re-uploads every live allocation as a DMA
// replay. Remote servers additionally pay the network transfer for the
// payload; the node-local fallback only pays the PCIe copy.
func (r *Resilient) migrate(p *sim.Proc, ep *endpoint, overNetwork bool) error {
	if r.pol.FailoverPenalty > 0 {
		p.Sleep(r.pol.FailoverPenalty)
	}
	return r.table.Each(func(h gpu.Ptr, size int64) error {
		ptr, err := ep.ctx.Malloc(p, size)
		if err != nil {
			return fmt.Errorf("remoting: state re-upload: %w", err)
		}
		ep.phys[h] = ptr
		if overNetwork {
			p.Sleep(r.transfer(size, 1))
		}
		if err := ep.ctx.MemcpyH2D(p, ptr, size); err != nil {
			return fmt.Errorf("remoting: state re-upload: %w", err)
		}
		r.stats.ReuploadBytes += size
		return nil
	})
}

// Malloc forwards cudaMalloc and returns a failover-stable virtual handle.
func (r *Resilient) Malloc(p *sim.Proc, n int64) (gpu.Ptr, error) {
	r.nextHandle++
	h := r.nextHandle
	res, err := r.call(p, callSpec{
		srv: "rsrv-malloc", reqBytes: 64, respBytes: 64, dedup: true,
		kind: callMalloc, h: h, n: n,
	})
	if err != nil {
		return 0, err
	}
	if res.err != nil {
		return 0, res.err
	}
	r.table.Add(h, n)
	return h, nil
}

// Free forwards cudaFree. A retried free whose first execution succeeded
// is treated as success (idempotent by request-id dedup).
func (r *Resilient) Free(p *sim.Proc, h gpu.Ptr) error {
	res, err := r.call(p, callSpec{
		srv: "rsrv-free", reqBytes: 64, respBytes: 64, dedup: true,
		kind: callFree, h: h,
	})
	if err != nil {
		return err
	}
	if res.err != nil {
		return res.err
	}
	r.table.Remove(h)
	return nil
}

// MemcpyH2D forwards a host-to-device copy; the payload rides the
// request. Copies are idempotent and simply re-execute on retry.
func (r *Resilient) MemcpyH2D(p *sim.Proc, h gpu.Ptr, n int64) error {
	res, err := r.call(p, callSpec{
		srv: "rsrv-h2d", reqBytes: 64 + n, respBytes: 64,
		kind: callH2D, h: h, n: n,
	})
	if err != nil {
		return err
	}
	return res.err
}

// MemcpyD2H forwards a device-to-host copy; the payload rides the
// response.
func (r *Resilient) MemcpyD2H(p *sim.Proc, h gpu.Ptr, n int64) error {
	res, err := r.call(p, callSpec{
		srv: "rsrv-d2h", reqBytes: 64, respBytes: 64 + n,
		kind: callD2H, h: h, n: n,
	})
	if err != nil {
		return err
	}
	return res.err
}

// LaunchSync forwards a blocking kernel launch (idempotent: re-executes
// on retry).
func (r *Resilient) LaunchSync(p *sim.Proc, k gpu.Kernel) error {
	_, err := r.call(p, callSpec{
		srv: "rsrv-launch", reqBytes: 256, respBytes: 64,
		kind: callLaunch, k: k,
	})
	return err
}

// DeviceSynchronize forwards cudaDeviceSynchronize.
func (r *Resilient) DeviceSynchronize(p *sim.Proc) error {
	_, err := r.call(p, callSpec{
		srv: "rsrv-sync", reqBytes: 64, respBytes: 64,
		kind: callSync,
	})
	return err
}
