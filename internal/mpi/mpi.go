// Package mpi provides a miniature message-passing runtime over the
// discrete-event simulator: ranks as simulated processes, point-to-point
// send/receive with a latency/bandwidth cost model, and the two collectives
// the workloads need (Barrier and AllreduceBytes). Messages carry a wire
// size, not data: the mini-apps are performance models, so only the cost
// of moving bytes matters.
//
// The LAMMPS mini-app uses it for domain-decomposition halo exchange; the
// Horovod layer charges gradient synchronization through AllreduceBytes.
// Costs follow the classic alpha-beta model with a ring algorithm for the
// allreduce.
package mpi

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// CostModel is the alpha-beta communication model: each message costs
// Alpha + bytes/Beta on the critical path.
type CostModel struct {
	// Alpha is the per-message latency.
	Alpha sim.Duration
	// Beta is the link bandwidth in bytes/second.
	Beta float64
}

// IntraNode returns the cost model for ranks on one node (shared-memory
// transport): sub-microsecond latency, memory-bus bandwidth.
func IntraNode() CostModel {
	return CostModel{Alpha: 400 * sim.Nanosecond, Beta: 40e9}
}

// InterNode returns the cost model for ranks across an HPC network
// (the ~1 µs half-round-trip regime the paper cites).
func InterNode() CostModel {
	return CostModel{Alpha: 1 * sim.Microsecond, Beta: 23e9}
}

// NVLink returns the cost model for GPUs coupled inside one chassis with
// NVLink-class links — the tight GPU-to-GPU coupling the paper's
// Discussion credits CDI chassis with enabling for collectives.
func NVLink() CostModel {
	return CostModel{Alpha: 150 * sim.Nanosecond, Beta: 150e9}
}

// transferTime returns the cost of moving n bytes point-to-point.
func (c CostModel) transferTime(n int64) sim.Duration {
	if n < 0 {
		panic("mpi: negative message size")
	}
	t := c.Alpha
	if c.Beta > 0 {
		t += sim.Duration(float64(n) / c.Beta)
	}
	return t
}

// message is one in-flight point-to-point transfer.
type message struct {
	src, tag int
	bytes    int64
}

// World is a communicator: a fixed set of ranks over one environment.
type World struct {
	env  *sim.Env
	size int
	cost CostModel
	// inbox holds in-flight messages per destination rank.
	inbox [][]message
	avail []*sim.Signal

	// collSeq is each rank's count of collectives entered. Collective k
	// meets in colls[k%2]: a rank enters collective k+2 only after every
	// rank arrived at k+1, and every rank picks k up before it leaves for
	// k+1, so slot k%2 is free again by then.
	collSeq []int
	colls   [2]collective
}

// collective is the rendezvous state of one collective call in flight;
// a slot is free while arrived is 0.
type collective struct {
	arrived int
	picked  int
	done    sim.Signal
	kind    string
}

// NewWorld creates a communicator of the given size on env. Spawn rank
// processes with Spawn, then drive env.Run.
func NewWorld(env *sim.Env, size int, cost CostModel) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{
		env:     env,
		size:    size,
		cost:    cost,
		inbox:   make([][]message, size),
		avail:   make([]*sim.Signal, size),
		collSeq: make([]int, size),
	}
	for i := range w.avail {
		w.avail[i] = sim.NewSignal(env)
	}
	for i := range w.colls {
		w.colls[i].done.Bind(env)
	}
	return w
}

// Rank is one process's endpoint in a World.
type Rank struct {
	w    *World
	rank int
	p    *sim.Proc
}

// Spawn starts fn as the body of the given rank. Each rank of the world
// must be spawned exactly once.
func (w *World) Spawn(rank int, fn func(r *Rank)) {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of world size %d", rank, w.size))
	}
	w.env.Spawn("rank"+strconv.Itoa(rank), func(p *sim.Proc) {
		fn(&Rank{w: w, rank: rank, p: p})
	})
}

// SpawnAll starts fn on every rank.
func (w *World) SpawnAll(fn func(r *Rank)) {
	for i := 0; i < w.size; i++ {
		w.Spawn(i, fn)
	}
}

// Rank returns this endpoint's rank index.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.size }

// Proc returns the simulated process executing this rank.
func (r *Rank) Proc() *sim.Proc { return r.p }

// Send transmits a message of the given wire size in bytes to rank dst
// with the given tag. The sender blocks for the transfer cost; the message
// becomes receivable when Send returns (a rendezvous-free eager model whose
// cost lands on the sender, the pessimistic accounting).
func (r *Rank) Send(dst, tag int, bytes int64) {
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("mpi: send to rank %d of %d", dst, r.w.size))
	}
	r.p.Sleep(r.w.cost.transferTime(bytes))
	r.w.inbox[dst] = append(r.w.inbox[dst], message{src: r.rank, tag: tag, bytes: bytes})
	r.w.avail[dst].Fire()
}

// Recv blocks until a message from src with the given tag arrives and
// returns its size in bytes.
func (r *Rank) Recv(src, tag int) int64 {
	for {
		box := r.w.inbox[r.rank]
		for i, m := range box {
			if m.src == src && m.tag == tag {
				r.w.inbox[r.rank] = append(box[:i], box[i+1:]...)
				return m.bytes
			}
		}
		r.w.avail[r.rank].Wait(r.p)
	}
}

// Sendrecv exchanges messages with a partner rank without deadlocking:
// both sides' sends complete before either receive is required. It
// returns the size of the received message.
func (r *Rank) Sendrecv(dst, sendTag int, bytes int64, src, recvTag int) int64 {
	r.Send(dst, sendTag, bytes)
	return r.Recv(src, recvTag)
}

// enterCollective synchronizes all ranks at one collective call site.
// Every rank then pays cost before proceeding.
func (r *Rank) enterCollective(kind string, cost sim.Duration) {
	w := r.w
	seq := w.collSeq[r.rank]
	w.collSeq[r.rank]++
	st := &w.colls[seq%2]
	if st.arrived == 0 {
		st.kind = kind
	}
	if st.kind != kind {
		panic(fmt.Sprintf("mpi: collective mismatch at sequence %d: %s vs %s (ranks diverged)", seq, st.kind, kind))
	}
	st.arrived++
	if st.arrived == w.size {
		st.done.Fire()
	} else {
		st.done.Wait(r.p)
	}
	st.picked++
	if st.picked == w.size {
		st.arrived, st.picked = 0, 0
	}
	r.p.Sleep(cost)
}

// Barrier blocks until every rank reaches it; cost is a log-depth
// latency tree.
func (r *Rank) Barrier() {
	cost := r.w.cost.Alpha * sim.Duration(log2ceil(r.w.size))
	r.enterCollective("barrier", cost)
}

// ringCost is the ring-allreduce critical path for n payload bytes.
func (r *Rank) ringCost(n int64) sim.Duration {
	p := r.w.size
	if p == 1 {
		return 0
	}
	steps := sim.Duration(2 * (p - 1))
	chunk := float64(n) / float64(p)
	per := r.w.cost.Alpha
	if r.w.cost.Beta > 0 {
		per += sim.Duration(chunk / r.w.cost.Beta)
	}
	return steps * per
}

// AllreduceBytes synchronizes all ranks and charges the ring-allreduce
// cost for n payload bytes: 2(P-1) steps, each moving n/P bytes.
func (r *Rank) AllreduceBytes(n int64) {
	if n < 0 {
		panic("mpi: negative allreduce size")
	}
	r.enterCollective("allreduce-bytes", r.ringCost(n))
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}
