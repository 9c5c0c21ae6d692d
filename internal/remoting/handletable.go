package remoting

import (
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// HandleTable is the failover-stable view of a tenant's device state: the
// live virtual handles in allocation order plus their sizes. It is the
// unit of live migration — Resilient replays one onto a new server during
// drain/failover, and the pool defragmenter charges the same table's
// ReplayTime when it consolidates an allocation onto another server.
type HandleTable struct {
	handles []gpu.Ptr
	sizes   map[gpu.Ptr]int64
}

// NewHandleTable returns an empty table.
func NewHandleTable() *HandleTable {
	return &HandleTable{sizes: map[gpu.Ptr]int64{}}
}

// Add records a live handle of n bytes. Re-adding a handle replaces its
// size (the transport never does this; the pool rebuilds tables freely).
func (t *HandleTable) Add(h gpu.Ptr, n int64) {
	if _, ok := t.sizes[h]; !ok {
		t.handles = append(t.handles, h)
	}
	t.sizes[h] = n
}

// Remove drops a handle; unknown handles are a no-op.
func (t *HandleTable) Remove(h gpu.Ptr) {
	if _, ok := t.sizes[h]; !ok {
		return
	}
	delete(t.sizes, h)
	for i, live := range t.handles {
		if live == h {
			t.handles = append(t.handles[:i], t.handles[i+1:]...)
			break
		}
	}
}

// Each walks the table in allocation order — the DMA-replay order both
// failover and pool defragmentation use — stopping at the first error.
func (t *HandleTable) Each(fn func(h gpu.Ptr, n int64) error) error {
	for _, h := range t.handles {
		if err := fn(h, t.sizes[h]); err != nil {
			return err
		}
	}
	return nil
}

// ReplayTime is the pure fabric cost of replaying the table over path:
// one store-and-forward transfer per handle, in allocation order. It is
// the network share of what Resilient.migrate pays — the device-side
// malloc and H2D copy time depend on the target device and are charged
// by the transport itself; the pool defragmenter, which abstracts device
// time, charges exactly this plus its re-attach penalty.
func ReplayTime(path fabric.Path, t *HandleTable) sim.Duration {
	var d sim.Duration
	for _, h := range t.handles {
		d += path.TransferTime(t.sizes[h])
	}
	return d
}
