package pool

import (
	"fmt"

	"repro/internal/compose"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/remoting"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Config shapes one pool run.
type Config struct {
	Topo     Topology
	Policy   Policy
	Workload Workload
	// Defrag enables the consolidation sweeps.
	Defrag bool
	// Serving and ServingGPUs reserve a slice of the pool for serving
	// tenants, placed through the serve placer before any batch job.
	Serving     []serve.Tenant
	ServingGPUs int
}

const (
	// defragEvery is the minimum cadence of consolidation sweeps.
	defragEvery = 10 * sim.Millisecond
	// migratePenalty is the control-plane re-attach charge per migrated
	// allocation, on top of the handle-table replay over the fabric,
	// mirroring the transport's failover penalty.
	migratePenalty = 500 * sim.Microsecond
)

// Stats is what a finished run reports.
type Stats struct {
	// Jobs is the batch job count drawn from the schedule, final once
	// env.Run drains; Placed ran, Blocked queued at least once before
	// running, Killed could not be re-placed after their server drained.
	Jobs    int
	Placed  int
	Blocked int
	Killed  int
	// PeakConcurrent is the maximum number of simultaneously placed
	// allocations the run sustained.
	PeakConcurrent int
	// Placement latency: arrival to placement, over all placed jobs.
	PlaceLatencyMean sim.Duration
	PlaceLatencyMax  sim.Duration
	// FragAvg and StrandedAvg are time averages over the measurement
	// window; StrandedPowerW prices the stranded average at compose's
	// idle GPU wattage.
	FragAvg        float64
	StrandedAvg    float64
	StrandedPowerW float64
	// Migrations/MigrationBytes count defrag consolidations and the
	// handle-table payload they replayed; DrainMigrations counts jobs
	// re-placed off drained servers (their bytes land in MigrationBytes
	// too).
	Migrations      int64
	MigrationBytes  int64
	DrainMigrations int64
	// Drains and Readmissions count control-plane actions applied.
	Drains       int64
	Readmissions int64
	// Goodput is delivered effective GPU-seconds (gang × efficiency ×
	// placed time inside the window) over the batch capacity's
	// GPU-seconds; GoodputGPUs is the same numerator per second of
	// window.
	Goodput     float64
	GoodputGPUs float64
	// ServingReplicas and ServingSlackMean summarize the serve-placer
	// reservation carved out before batch placement.
	ServingReplicas  int
	ServingSlackMean sim.Duration
}

// message kinds the mailbox carries.
type msgKind uint8

const (
	msgDone     msgKind = iota // arg = slot: lifetime expired
	msgMigrated                // arg unused: a defrag copy finished
	msgDrain                   // arg = server: control plane drains it
	msgReadmit                 // arg = server: control plane readmits it
)

type msg struct {
	kind msgKind
	arg  int
}

// allocState is a slot's lifecycle position. A killed job's slot is a
// tombstone: it stays out of the free list until the job's end-timer
// message is consumed, so that stale message can never complete the
// slot's next job.
type allocState uint8

const (
	allocFree allocState = iota
	allocQueued
	allocPlaced
	allocKilled
)

// alloc is one batch job's placement record. slices is the slot's own
// buffer: a placement copies the scratch slices into it, and a freed slot
// keeps its capacity for the next job.
type alloc struct {
	state allocState
	// nextFree links a free slot to the next one on the free list (-1 at
	// its end); it fills the padding after state.
	nextFree int32
	slices   []slice
	eff      float64
	// segStart opens the current efficiency segment; effAcc accumulates
	// closed segments as effective GPU-seconds (window-clipped).
	segStart sim.Time
	effAcc   float64
}

// slot is one entry of the recycled slot table: a live job (running,
// queued, or a killed job's tombstone) and its placement record. done is
// the job's end-timer callback, bound once when the slot is created.
type slot struct {
	job Job
	alloc
	done func()
}

// slotChunk is how many slots the slot table adds at once.
const slotChunk = 64

// Scheduler is the pool control loop: a single process owns every
// placement decision; job-end and migration-copy callback events talk
// back to it through the mailbox. It implements health.Pool, so the
// heartbeat control plane can drain and readmit pool servers like any
// other.
type Scheduler struct {
	env    *sim.Env
	cfg    Config
	topo   Topology
	window sim.Duration
	// arrivals is the batch schedule, drawn one job ahead.
	arrivals jobStream
	// batchGPUs is the capacity left for batch jobs after the serving
	// reservation.
	batchGPUs int
	// refGang is the reference gang size, min(16, GPUsPerServer), that
	// fragmentation and stranding are scored against; twice it is the
	// stranded-GPU level that arms a consolidation sweep even with an
	// empty queue.
	refGang int

	// eff prices each shape at each spread scale; migCost is the
	// handle-table replay time per (shape, gang, crossing scale), built
	// once from remoting's DMA-replay cost model.
	eff     [numShapes][4]float64
	migCost [numShapes][5][4]sim.Duration

	wake *sim.Signal
	// migrated is the migration-copy callback, bound once: every copy
	// posts the same argument-free message.
	migrated func()

	// Free-list state and run bookkeeping, owned by the scheduler
	// process. freeHist[f] counts the live servers with exactly f free
	// GPUs and byFree[f] is the bitset of them; avail is the bitset of
	// live servers with any free GPU. The placement and victim queries
	// read these instead of scanning every server.
	free             []int
	freeRack         []int
	freeRow          []int
	freeHist         []int
	byFree           []bitset
	avail            bitset
	totalFree        int
	stranded         int
	pinned           []int
	jobsOn           [][]int
	queue            []int
	mail             []msg
	runningJobs      int
	sweepOutstanding int
	defragBusy       bool
	nextDefrag       sim.Time
	lastAt           sim.Time
	fragInt          float64
	strandedInt      float64
	effGPUSec        float64
	placeLatTotal    sim.Duration
	stats            Stats

	// live is the published rotation view: written by the scheduler
	// process, sampled read-only by other processes (the health
	// evaluator's Live checks), the same pattern as health.Registry's
	// degraded counter.
	live []bool

	// slots is the slot table, slotChunk slots at a time, and nslots
	// the number of slots made; freeHead heads the free list through
	// alloc.nextFree (-1 when empty). Queue entries, jobsOn lists and
	// end-timer messages carry slot numbers, so the table grows with the
	// live jobs, not with the schedule, and a chunk, once made, is never
	// copied.
	slots    []*[slotChunk]slot
	nslots   int
	freeHead int

	// scratch buffers reused across placements and sweeps.
	scratchSl    []slice
	scratchKeys  []int
	scratchJobs  []int
	scratchMoves []move
	planFree     []int
}

// Start builds the pool, reserves the serving slice, validates the batch
// workload, and spawns the scheduler, which draws the schedule as it
// runs. The run completes when env.Run drains: every job has then been
// drawn and completed (or killed), and Stats is final.
func Start(env *sim.Env, cfg Config) (*Scheduler, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy < FirstFit || cfg.Policy > TierAware {
		return nil, fmt.Errorf("pool: unknown policy %d", int(cfg.Policy))
	}
	topo := cfg.Topo
	servers, racks, gpus := topo.Servers(), topo.Racks(), topo.GPUs()
	if cfg.ServingGPUs < 0 || cfg.ServingGPUs >= gpus {
		return nil, fmt.Errorf("pool: serving reservation %d outside [0, %d)", cfg.ServingGPUs, gpus)
	}
	s := &Scheduler{
		env:       env,
		cfg:       cfg,
		topo:      topo,
		window:    cfg.Workload.Window,
		batchGPUs: gpus - cfg.ServingGPUs,
		refGang:   min(gangSizes[len(gangSizes)-1], topo.GPUsPerServer),
		free:      make([]int, servers),
		freeRack:  make([]int, racks),
		freeRow:   make([]int, topo.Rows),
		freeHist:  make([]int, topo.GPUsPerServer+1),
		pinned:    make([]int, servers),
		jobsOn:    make([][]int, servers),
		live:      make([]bool, servers),
	}
	s.byFree, s.avail = newBitsets(topo.GPUsPerServer+1, servers)
	// Every job a server lists holds at least one of its GPUs, so each
	// list is carved from one backing array at that length.
	per := topo.GPUsPerServer
	onBacking := make([]int, servers*per)
	for sv := range s.jobsOn {
		s.jobsOn[sv] = onBacking[sv*per : sv*per : (sv+1)*per]
	}
	for sv := range s.free {
		s.free[sv] = topo.GPUsPerServer
		s.live[sv] = true
		s.index(sv)
	}
	s.totalFree = gpus
	for r := range s.freeRack {
		s.freeRack[r] = topo.ServersPerRack * topo.GPUsPerServer
	}
	for w := range s.freeRow {
		s.freeRow[w] = topo.RacksPerRow * topo.ServersPerRack * topo.GPUsPerServer
	}
	for sh := Shape(0); sh < numShapes; sh++ {
		for sc := fabric.NodeLocal; sc <= fabric.ClusterScale; sc++ {
			s.eff[sh][sc] = EfficiencyAt(sh, sc)
		}
		for gi, g := range gangSizes {
			t := remoting.NewHandleTable()
			for k := 0; k < g; k++ {
				t.Add(gpu.Ptr(k+1), sh.BytesPerGPU())
			}
			for sc := fabric.RackScale; sc <= fabric.ClusterScale; sc++ {
				s.migCost[sh][gi][sc] = remoting.ReplayTime(fabric.Preset(sc, 0), t)
			}
		}
	}
	if err := s.reserveServing(); err != nil {
		return nil, err
	}
	arrivals, err := newJobStream(cfg.Workload, s.batchGPUs)
	if err != nil {
		return nil, err
	}
	s.arrivals = arrivals
	s.freeHead = -1
	s.mail = make([]msg, 0, 256)
	s.migrated = func() { s.post(msgMigrated, 0) }

	s.wake = sim.NewSignal(env)
	env.Spawn("pool-sched", s.run)
	return s, nil
}

// reserveServing hands the serving tenants to the serve placer and pins
// their replicas across the pool, one GPU each, stride-spread so the
// reservation does not concentrate in one rack.
func (s *Scheduler) reserveServing() error {
	if s.cfg.ServingGPUs == 0 {
		return nil
	}
	replicas, err := serve.Place(s.cfg.Serving, []serve.Tier{
		{Scale: fabric.RowScale, GPUs: s.cfg.ServingGPUs},
	})
	if err != nil {
		return fmt.Errorf("pool: serving reservation: %w", err)
	}
	servers := len(s.free)
	stride := servers / len(replicas)
	if stride == 0 {
		stride = 1
	}
	var slackSum sim.Duration
	for r, rep := range replicas {
		sv := (r * stride) % servers
		for s.free[sv] == 0 {
			sv = (sv + 1) % servers
		}
		// Pin before claiming so the stranded accounting already prices
		// the server at its reduced effective capacity.
		s.pinned[sv]++
		s.claim(sv, 1)
		slackSum += rep.Slack
	}
	s.stats.ServingReplicas = len(replicas)
	s.stats.ServingSlackMean = slackSum / sim.Duration(len(replicas))
	return nil
}

// Stats returns the run's counters; averages are final once env.Run has
// drained.
func (s *Scheduler) Stats() Stats { return s.stats }

// post delivers a mailbox message to the scheduler from outside its
// process (a job-end or migration-copy callback, or the health plane) and
// wakes it.
func (s *Scheduler) post(k msgKind, arg int) {
	s.mail = append(s.mail, msg{kind: k, arg: arg})
	s.wake.Fire()
}

// afterWake, when set, runs at the end of every scheduler wake-up, with
// the books settled. Tests hang the from-scratch invariant check on it;
// it is nil otherwise.
var afterWake func(*Scheduler)

// run is the scheduler process: admit arrivals, drain the mailbox, place
// the queue, consolidate, sleep until the next arrival or wake-up.
func (s *Scheduler) run(p *sim.Proc) {
	for {
		now := p.Now()
		s.advance(now)
		s.admitArrivals(now)
		s.drainMail(now)
		s.tryQueue(now)
		s.maybeDefrag(now)
		if afterWake != nil {
			afterWake(s)
		}
		if s.finished(now) {
			return
		}
		if s.arrivals.more {
			if err := s.wake.WaitTimeout(p, s.arrivals.next.Arrival.Sub(now)); err != nil {
				continue // the arrival tick; mailbox wake-ups return nil
			}
		} else {
			s.wake.Wait(p)
		}
	}
}

// finished reports (and finalizes) run completion: nothing left to
// arrive, run, copy, or place.
func (s *Scheduler) finished(now sim.Time) bool {
	if s.arrivals.more || s.runningJobs > 0 ||
		s.sweepOutstanding > 0 || len(s.mail) > 0 {
		return false
	}
	if len(s.queue) > 0 {
		// No capacity will ever free up again; the remainder is
		// unplaceable (drained servers shrank the pool below its needs).
		// A queued job has no end timer, so its slot frees at once.
		for _, n := range s.queue {
			s.freeSlot(n)
			s.stats.Killed++
		}
		s.queue = s.queue[:0]
	}
	wEnd := sim.Time(0).Add(s.window)
	if now.Sub(wEnd) < 0 {
		s.advance(wEnd) // freeze the tail of the window under final state
	}
	s.finalize()
	return true
}

// finalize converts integrals into the reported averages.
func (s *Scheduler) finalize() {
	w := s.window.Seconds()
	s.stats.FragAvg = s.fragInt / w
	s.stats.StrandedAvg = s.strandedInt / w
	s.stats.StrandedPowerW = compose.StrandedDraw(s.stats.StrandedAvg)
	s.stats.GoodputGPUs = s.effGPUSec / w
	s.stats.Goodput = s.effGPUSec / (float64(s.batchGPUs) * w)
	if s.stats.Placed > 0 {
		s.stats.PlaceLatencyMean = s.placeLatTotal / sim.Duration(s.stats.Placed)
	}
}

// advance integrates the fragmentation and stranded metrics up to now,
// clipped to the measurement window.
func (s *Scheduler) advance(now sim.Time) {
	wEnd := sim.Time(0).Add(s.window)
	a, b := s.lastAt, now
	if b > wEnd {
		b = wEnd
	}
	if d := b.Sub(a); d > 0 {
		dt := d.Seconds()
		s.fragInt += Fragmentation(s.totalFree, s.largest(), s.refGang) * dt
		s.strandedInt += float64(s.stranded) * dt
	}
	s.lastAt = now
}

// largest returns the biggest single-server free block among live
// servers.
func (s *Scheduler) largest() int {
	for k := len(s.freeHist) - 1; k >= 1; k-- {
		if s.freeHist[k] > 0 {
			return k
		}
	}
	return 0
}

// index files a live server under its free count; unindex takes it out.
func (s *Scheduler) index(sv int) {
	f := s.free[sv]
	s.freeHist[f]++
	s.byFree[f].set(sv)
	if f > 0 {
		s.avail.set(sv)
	}
}

func (s *Scheduler) unindex(sv int) {
	f := s.free[sv]
	s.freeHist[f]--
	s.byFree[f].clear(sv)
	s.avail.clear(sv)
}

// claim takes n GPUs from a live server, maintaining every aggregate in
// O(1); unclaim returns them.
func (s *Scheduler) claim(sv, n int) {
	f, capEff := s.free[sv], s.capEff(sv)
	s.stranded += strandedContrib(f-n, capEff, s.refGang) - strandedContrib(f, capEff, s.refGang)
	s.unindex(sv)
	s.free[sv] = f - n
	s.index(sv)
	s.totalFree -= n
	s.freeRack[s.topo.RackOf(sv)] -= n
	s.freeRow[s.topo.RowOf(sv)] -= n
}

func (s *Scheduler) unclaim(sv, n int) { s.claim(sv, -n) }

// capEff is a server's capacity net of its pinned serving replicas.
func (s *Scheduler) capEff(sv int) int { return s.topo.GPUsPerServer - s.pinned[sv] }

// admitArrivals places (or queues) every job whose arrival time has come.
func (s *Scheduler) admitArrivals(now sim.Time) {
	for s.arrivals.more && s.arrivals.next.Arrival.Sub(now) <= 0 {
		s.admit(now, s.arrivals.pop())
	}
}

// admit gives an arriving job a slot, then places or queues it.
func (s *Scheduler) admit(now sim.Time, j Job) {
	n := s.newSlot(j)
	s.stats.Jobs++
	if sl, scale, ok := s.placeJob(j); ok {
		s.doPlace(now, n, sl, scale, true)
		return
	}
	s.slot(n).state = allocQueued
	s.queue = append(s.queue, n)
	s.stats.Blocked++
}

// slot returns slot n of the table.
func (s *Scheduler) slot(n int) *slot { return &s.slots[uint(n)/slotChunk][uint(n)%slotChunk] }

// newSlot takes the head of the free list, or else makes a slot with its
// end-timer callback bound, and gives it to j.
func (s *Scheduler) newSlot(j Job) int {
	n := s.freeHead
	if n >= 0 {
		s.freeHead = int(s.slot(n).nextFree)
	} else {
		n = s.nslots
		if n%slotChunk == 0 {
			s.slots = append(s.slots, new([slotChunk]slot))
		}
		s.nslots++
		s.slot(n).done = func() { s.post(msgDone, n) }
	}
	s.slot(n).job = j
	return n
}

// freeSlot returns a slot to the free list, keeping its slice buffer and
// its callback for the next job.
func (s *Scheduler) freeSlot(n int) {
	sl := s.slot(n)
	sl.alloc = alloc{slices: sl.slices[:0], nextFree: int32(s.freeHead)}
	s.freeHead = n
}

// tryQueue re-attempts every queued job in arrival order, keeping the
// ones that still do not fit.
func (s *Scheduler) tryQueue(now sim.Time) {
	if len(s.queue) == 0 {
		return
	}
	w := 0
	for _, n := range s.queue {
		if sl, scale, ok := s.placeJob(s.slot(n).job); ok {
			s.doPlace(now, n, sl, scale, true)
			continue
		}
		s.queue[w] = n
		w++
	}
	s.queue = s.queue[:w]
}

// doPlace commits slot n's placement, copying sl into the slot's own
// buffer. Initial placements start the job's lifetime clock;
// re-placements (drain recovery) keep the original end time.
func (s *Scheduler) doPlace(now sim.Time, n int, sl []slice, scale fabric.Scale, initial bool) {
	a := s.slot(n)
	j := a.job
	for _, x := range sl {
		s.claim(x.server, x.gpus)
		s.jobsOn[x.server] = append(s.jobsOn[x.server], n)
	}
	a.state = allocPlaced
	a.slices = append(a.slices[:0], sl...)
	a.eff = s.eff[j.Shape][scale]
	a.segStart = now
	if !initial {
		return
	}
	s.runningJobs++
	if s.runningJobs > s.stats.PeakConcurrent {
		s.stats.PeakConcurrent = s.runningJobs
	}
	s.stats.Placed++
	lat := now.Sub(j.Arrival)
	s.placeLatTotal += lat
	if lat > s.stats.PlaceLatencyMax {
		s.stats.PlaceLatencyMax = lat
	}
	s.env.After(j.Lifetime, a.done)
}

// clipSpan returns the seconds of [from, to] inside the window.
func (s *Scheduler) clipSpan(from, to sim.Time) float64 {
	wEnd := sim.Time(0).Add(s.window)
	if to > wEnd {
		to = wEnd
	}
	if from < 0 {
		from = 0
	}
	if d := to.Sub(from); d > 0 {
		return d.Seconds()
	}
	return 0
}

// closeSegment banks the open efficiency segment at now.
func (s *Scheduler) closeSegment(a *alloc, gang int, now sim.Time) {
	a.effAcc += float64(gang) * a.eff * s.clipSpan(a.segStart, now)
	a.segStart = now
}

// drainMail applies every pending mailbox message in arrival order.
func (s *Scheduler) drainMail(now sim.Time) {
	for i := 0; i < len(s.mail); i++ {
		m := s.mail[i]
		switch m.kind {
		case msgDone:
			s.complete(m.arg, now)
		case msgMigrated:
			if s.sweepOutstanding--; s.sweepOutstanding == 0 {
				s.defragBusy = false
			}
		case msgDrain:
			s.drainServer(m.arg, now)
		case msgReadmit:
			s.readmitServer(m.arg)
		}
	}
	s.mail = s.mail[:0]
}

// complete consumes slot n's end-timer message: it retires the job
// whose lifetime expired, or frees the tombstone of one killed while the
// timer was in flight.
func (s *Scheduler) complete(n int, now sim.Time) {
	a := s.slot(n)
	if a.state == allocPlaced {
		s.closeSegment(&a.alloc, a.job.Gang, now)
		for _, x := range a.slices {
			s.removeJobFrom(x.server, n)
			s.unclaim(x.server, x.gpus)
		}
		s.runningJobs--
		s.effGPUSec += a.effAcc
	}
	s.freeSlot(n)
}

// removeJobFrom drops slot n from a server's job list, preserving order.
func (s *Scheduler) removeJobFrom(sv, n int) {
	l := s.jobsOn[sv]
	for i, x := range l {
		if x == n {
			copy(l[i:], l[i+1:])
			s.jobsOn[sv] = l[:len(l)-1]
			return
		}
	}
}

// drainServer takes a server out of rotation: its free capacity leaves
// the books and every allocation touching it re-places through the
// migration machinery (handle-table replay from the host over the new
// spread's path). Jobs with nowhere to go are killed.
func (s *Scheduler) drainServer(v int, now sim.Time) {
	if v < 0 || v >= len(s.free) || !s.live[v] {
		return
	}
	s.stats.Drains++
	s.live[v] = false
	f := s.free[v]
	s.unindex(v)
	s.stranded -= strandedContrib(f, s.capEff(v), s.refGang)
	s.totalFree -= f
	s.freeRack[s.topo.RackOf(v)] -= f
	s.freeRow[s.topo.RowOf(v)] -= f
	s.free[v] = 0

	victims := append(s.scratchJobs[:0], s.jobsOn[v]...)
	for _, n := range victims {
		a := s.slot(n)
		if a.state != allocPlaced {
			continue
		}
		j := a.job
		s.closeSegment(&a.alloc, j.Gang, now)
		for _, x := range a.slices {
			s.removeJobFrom(x.server, n)
			if x.server != v {
				s.unclaim(x.server, x.gpus)
			}
		}
		a.slices = a.slices[:0]
		sl, scale, ok := s.placeJob(j)
		if !ok {
			// The slot stays a tombstone until the job's end timer fires.
			a.state = allocKilled
			s.runningJobs--
			s.stats.Killed++
			s.effGPUSec += a.effAcc
			continue
		}
		s.doPlace(now, n, sl, scale, false)
		// The job resumes only after its state replays onto the new
		// spread; the gap costs goodput, the payload costs the fabric.
		cost := migratePenalty + s.replayCost(j, scale)
		a.segStart = now.Add(cost)
		s.stats.DrainMigrations++
		s.stats.MigrationBytes += int64(j.Gang) * j.Shape.BytesPerGPU()
	}
	s.scratchJobs = victims[:0]
}

// readmitServer returns a drained server to rotation, blank.
func (s *Scheduler) readmitServer(v int) {
	if v < 0 || v >= len(s.free) || s.live[v] {
		return
	}
	s.stats.Readmissions++
	s.live[v] = true
	f := s.capEff(v)
	s.free[v] = f
	s.index(v)
	s.stranded += strandedContrib(f, f, s.refGang)
	s.totalFree += f
	s.freeRack[s.topo.RackOf(v)] += f
	s.freeRow[s.topo.RowOf(v)] += f
}

// replayCost prices a job's handle-table replay at a spread scale; the
// host-to-server re-upload crosses at least the rack fabric.
func (s *Scheduler) replayCost(j Job, scale fabric.Scale) sim.Duration {
	if scale < fabric.RackScale {
		scale = fabric.RackScale
	}
	return s.migCost[j.Shape][gangIdx(j.Gang)][scale]
}

// gangIdx maps a mixture gang size to its migCost row.
func gangIdx(g int) int {
	for i, size := range gangSizes {
		if size >= g {
			return i
		}
	}
	return len(gangSizes) - 1
}
