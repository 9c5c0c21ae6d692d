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

// Config tunes the synchronization layer.
type Config struct {
	// FusionThresholdBytes is the fusion buffer size; tensors are packed
	// into chunks of at most this size before each allreduce. Zero selects
	// Horovod's 64 MiB default.
	FusionThresholdBytes int64
	// CycleTime is the coordination delay charged per fusion cycle
	// (Horovod's background-thread cycle, default 1 ms in our model,
	// mirroring HOROVOD_CYCLE_TIME's default).
	CycleTime sim.Duration
}

// DefaultFusionThreshold is Horovod's default fusion buffer size.
const DefaultFusionThreshold int64 = 64 << 20

// Session is one worker's handle to the synchronization layer.
type Session struct {
	rank *mpi.Rank
	cfg  Config

	cycles int64
	bytes  int64
}

// New returns a session for this rank.
func New(rank *mpi.Rank, cfg Config) *Session {
	if cfg.FusionThresholdBytes == 0 {
		cfg.FusionThresholdBytes = DefaultFusionThreshold
	}
	if cfg.FusionThresholdBytes < 0 {
		panic("horovod: negative fusion threshold")
	}
	if cfg.CycleTime == 0 {
		cfg.CycleTime = 1 * sim.Millisecond
	}
	return &Session{rank: rank, cfg: cfg}
}

// Rank returns the underlying MPI rank.
func (s *Session) Rank() *mpi.Rank { return s.rank }

// Size returns the number of workers.
func (s *Session) Size() int { return s.rank.Size() }

// Cycles returns the number of fusion cycles performed.
func (s *Session) Cycles() int64 { return s.cycles }

// BytesReduced returns the total gradient bytes this worker contributed.
func (s *Session) BytesReduced() int64 { return s.bytes }

// SyncBytes synchronizes n gradient bytes: one fusion cycle plus the
// ring-allreduce cost per fusion-buffer chunk.
func (s *Session) SyncBytes(n int64) {
	if n < 0 {
		panic("horovod: negative gradient size")
	}
	for n > 0 {
		chunk := n
		if chunk > s.cfg.FusionThresholdBytes {
			chunk = s.cfg.FusionThresholdBytes
		}
		s.rank.Proc().Sleep(s.cfg.CycleTime)
		s.cycles++
		s.rank.AllreduceBytes(chunk)
		s.bytes += chunk
		n -= chunk
	}
}
