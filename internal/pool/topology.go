// Package pool is a datacenter-scale GPU pool scheduler over the compose/
// fabric model: a topology of rows × racks × servers × GPUs, batch gang
// allocations and serving tenants placed
// under pluggable policies, explicit fragmentation and stranded-capacity
// accounting, and a defragmenter that consolidates allocations by live
// migration over the remoting DMA-replay cost model. The paper stops at
// row scale; this package asks the question production pools face next —
// placement, fragmentation, and reclamation under job churn (DxPU's pool-
// manager regime, ROADMAP item 1).
package pool

import (
	"fmt"

	"repro/internal/fabric"
)

// Topology is the pool's physical shape. GPUs are fungible within a
// server; crossing a server, rack, or row boundary moves the allocation
// to the matching fabric scale and charges its slack.
type Topology struct {
	Rows           int
	RacksPerRow    int
	ServersPerRack int
	GPUsPerServer  int
}

// DefaultTopology is the experiment's reference pool: 8 rows × 8 racks ×
// 8 servers × 16 GPUs = 8192 GPUs on 512 servers across 64 racks.
func DefaultTopology() Topology {
	return Topology{Rows: 8, RacksPerRow: 8, ServersPerRack: 8, GPUsPerServer: 16}
}

// Validate reports the first invalid dimension.
func (t Topology) Validate() error {
	if t.Rows <= 0 || t.RacksPerRow <= 0 || t.ServersPerRack <= 0 || t.GPUsPerServer <= 0 {
		return fmt.Errorf("pool: invalid topology %+v", t)
	}
	return nil
}

// Racks returns the total rack count.
func (t Topology) Racks() int { return t.Rows * t.RacksPerRow }

// Servers returns the total server count.
func (t Topology) Servers() int { return t.Racks() * t.ServersPerRack }

// GPUs returns the total device count.
func (t Topology) GPUs() int { return t.Servers() * t.GPUsPerServer }

// RackOf returns the rack index hosting a server.
func (t Topology) RackOf(server int) int { return server / t.ServersPerRack }

// RowOf returns the row index hosting a server.
func (t Topology) RowOf(server int) int {
	return server / (t.ServersPerRack * t.RacksPerRow)
}

// CrossingScale returns the fabric scale of the boundary between two
// servers: same server is node-local, same rack is rack-scale, same row
// is row-scale, anything wider is cluster-scale.
func (t Topology) CrossingScale(a, b int) fabric.Scale {
	switch {
	case a == b:
		return fabric.NodeLocal
	case t.RackOf(a) == t.RackOf(b):
		return fabric.RackScale
	case t.RowOf(a) == t.RowOf(b):
		return fabric.RowScale
	default:
		return fabric.ClusterScale
	}
}

// slice is one server's share of a gang placement.
type slice struct {
	server int
	gpus   int
}

// spreadScale returns the widest boundary a placement crosses: the scale
// whose slack every call from the gang's host pays under the paper's
// penalty model.
func (t Topology) spreadScale(slices []slice) fabric.Scale {
	widest := fabric.NodeLocal
	for _, sl := range slices[1:] {
		if s := t.CrossingScale(slices[0].server, sl.server); s > widest {
			widest = s
		}
	}
	return widest
}
