// Package horovod models the gradient-synchronization layer CosmoFlow
// uses: Horovod-style allreduce over MPI with tensor fusion. After every
// training step each worker synchronizes its gradient bytes in fusion-
// buffer chunks, one coordination cycle and one ring allreduce per chunk —
// the cost structure that makes Horovod efficient and that the paper's
// CosmoFlow runs rely on for inter-GPU communication. No gradient values
// move; only their cost is charged.
package horovod

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

const (
	// fusionThreshold is Horovod's default 64 MiB fusion buffer: tensors
	// are packed into chunks of at most this size before each allreduce.
	fusionThreshold int64 = 64 << 20
	// cycleTime is the coordination delay charged per fusion cycle, the
	// 1 ms default of Horovod's HOROVOD_CYCLE_TIME.
	cycleTime = 1 * sim.Millisecond
)

// Session is one worker's handle to the synchronization layer.
type Session struct {
	rank *mpi.Rank
}

// New returns a session for this rank.
func New(rank *mpi.Rank) *Session {
	return &Session{rank: rank}
}

// SyncBytes synchronizes n gradient bytes: one fusion cycle plus the
// ring-allreduce cost per fusion-buffer chunk.
func (s *Session) SyncBytes(n int64) {
	if n < 0 {
		panic("horovod: negative gradient size")
	}
	for n > 0 {
		chunk := n
		if chunk > fusionThreshold {
			chunk = fusionThreshold
		}
		s.rank.Proc().Sleep(cycleTime)
		s.rank.AllreduceBytes(chunk)
		n -= chunk
	}
}
