// Package fabric models the interconnect between hosts and disaggregated
// GPU chassis: NICs, switches, and fibre spans. It supplies the "slack"
// magnitudes the paper injects (the extra CPU-to-GPU latency introduced by
// crossing a network instead of a local PCIe bus) and the
// distance-to-latency conversions behind the paper's "100 µs ≈ 20 km of
// fibre" headline.
package fabric

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Speed of light in fibre. The paper's conversion (100 µs ⇒ 20 km) implies
// 200 000 km/s, i.e. refractive index ≈ 1.5; we adopt the same constant so
// the headline numbers reproduce exactly.
const FibreKmPerSecond = 200_000.0

// PropagationDelay returns the one-way propagation time over km kilometres
// of fibre. It is total: negative and NaN distances clamp to zero. Validation
// belongs to the constructor path (NewPath, NewSharedLink, PathForSlack),
// which returns errors callers can recover from.
func PropagationDelay(km float64) sim.Duration {
	if !(km >= 0) {
		km = 0
	}
	return sim.Duration(km / FibreKmPerSecond)
}

// DistanceForDelay inverts PropagationDelay: the fibre length whose one-way
// propagation time equals d. Negative and NaN delays clamp to zero.
func DistanceForDelay(d sim.Duration) float64 {
	if !(d >= 0) {
		d = 0
	}
	return float64(d) * FibreKmPerSecond
}

// Hop is one element on the path between a host and a disaggregated device.
type Hop struct {
	Name    string
	Latency sim.Duration // fixed traversal latency (port-to-port, NIC pipeline, ...)
	// Bandwidth in bytes/second for serialization of payload bytes;
	// zero means the hop adds latency only (no serialization term).
	Bandwidth float64
}

// Validate reports the first invalid field of the hop: a latency that is
// negative, NaN or infinite, or a bandwidth that is negative or NaN. An
// infinite bandwidth is valid and adds no serialization term.
func (h Hop) Validate() error {
	if l := float64(h.Latency); !(l >= 0) || math.IsInf(l, 1) {
		return fmt.Errorf("fabric: hop %q has latency %g s, want finite and non-negative", h.Name, l)
	}
	if !(h.Bandwidth >= 0) {
		return fmt.Errorf("fabric: hop %q has bandwidth %g B/s, want non-negative", h.Name, h.Bandwidth)
	}
	return nil
}

// Path is an ordered sequence of hops. A CPU→GPU message traverses every
// hop once; a synchronous API call traverses the path twice (request and
// completion).
type Path struct {
	Hops []Hop
}

// NewPath is the validated constructor: it rejects the hops Hop.Validate
// rejects, so downstream arithmetic (Latency, TransferTime) can stay total
// and panic-free.
func NewPath(hops ...Hop) (Path, error) {
	p := Path{Hops: hops}
	return p, p.Validate()
}

// Validate reports the first invalid hop.
func (p Path) Validate() error {
	for _, h := range p.Hops {
		if err := h.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Latency returns the one-way zero-payload latency of the path: the sum of
// all hop latencies. This is the paper's "slack" for a single crossing.
func (p Path) Latency() sim.Duration {
	var d sim.Duration
	for _, h := range p.Hops {
		d += h.Latency
	}
	return d
}

// TransferTime returns the one-way time for a message of n payload bytes:
// hop latencies plus serialization on every bandwidth-limited hop (a
// store-and-forward model, the pessimistic case the paper favours).
// Negative payload sizes clamp to zero (see NewPath for validation).
func (p Path) TransferTime(n int64) sim.Duration {
	if n < 0 {
		n = 0
	}
	d := p.Latency()
	for _, h := range p.Hops {
		if h.Bandwidth > 0 {
			d += sim.Duration(float64(n) / h.Bandwidth)
		}
	}
	return d
}

// RoundTrip returns twice the one-way latency — the full cost a synchronous
// call pays before the host observes completion.
func (p Path) RoundTrip() sim.Duration { return 2 * p.Latency() }

// String lists the hops.
func (p Path) String() string {
	s := "path["
	for i, h := range p.Hops {
		if i > 0 {
			s += " → "
		}
		s += h.Name
	}
	return s + "]"
}

// Scale identifies the composition scale of a CDI deployment.
type Scale int

const (
	// NodeLocal is the traditional architecture: GPU on the host PCIe bus.
	NodeLocal Scale = iota
	// RackScale is vendor CDI today (Liqid, GigaIO): a PCIe-switch chassis
	// serving a single rack, same PCIe domain.
	RackScale
	// RowScale is the paper's subject: a chassis serving multiple racks in
	// a row, reached across a network.
	RowScale
	// ClusterScale extends the chassis reach to the full machine room or
	// beyond (the paper's 20 km speculation).
	ClusterScale
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case NodeLocal:
		return "node-local"
	case RackScale:
		return "rack-scale"
	case RowScale:
		return "row-scale"
	case ClusterScale:
		return "cluster-scale"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Typical component latencies used by the presets. NIC and switch numbers
// follow the HPC interconnect measurements the paper cites (InfiniBand and
// Slingshot half-round-trip ≈ 1 µs).
const (
	pcieSwitchLatency = 110 * sim.Nanosecond // single PCIe switch traversal
	nicLatency        = 350 * sim.Nanosecond // NIC pipeline, each direction
	switchLatency     = 200 * sim.Nanosecond // HPC switch port-to-port
	pcieGen4x16       = 26.0e9               // bytes/s usable on a Gen4 x16 link
	hdr200Bandwidth   = 23.0e9               // bytes/s usable on 200 Gb/s HDR-class link
)

// Preset returns a representative Path for the given scale and fibre
// distance in km (ignored for NodeLocal). The presets are:
//
//	NodeLocal:    direct PCIe attach (no extra hops, zero slack)
//	RackScale:    two PCIe switch traversals within a rack (cable ≤ 3 m)
//	RowScale:     NIC → switch → NIC plus fibre distance (default 50 m)
//	ClusterScale: NIC → 3 switches → NIC plus fibre distance (default 500 m)
func Preset(s Scale, km float64) Path {
	switch s {
	case NodeLocal:
		return Path{}
	case RackScale:
		if km == 0 {
			km = 0.003
		}
		return Path{Hops: []Hop{
			{Name: "pcie-sw-host", Latency: pcieSwitchLatency, Bandwidth: pcieGen4x16},
			{Name: "fibre", Latency: PropagationDelay(km)},
			{Name: "pcie-sw-chassis", Latency: pcieSwitchLatency},
		}}
	case RowScale:
		if km == 0 {
			km = 0.05
		}
		return Path{Hops: []Hop{
			{Name: "nic-host", Latency: nicLatency, Bandwidth: hdr200Bandwidth},
			{Name: "switch", Latency: switchLatency},
			{Name: "fibre", Latency: PropagationDelay(km)},
			{Name: "nic-chassis", Latency: nicLatency},
		}}
	case ClusterScale:
		if km == 0 {
			km = 0.5
		}
		return Path{Hops: []Hop{
			{Name: "nic-host", Latency: nicLatency, Bandwidth: hdr200Bandwidth},
			{Name: "switch-leaf", Latency: switchLatency},
			{Name: "switch-spine", Latency: switchLatency},
			{Name: "switch-leaf2", Latency: switchLatency},
			{Name: "fibre", Latency: PropagationDelay(km)},
			{Name: "nic-chassis", Latency: nicLatency},
		}}
	default:
		panic(fmt.Sprintf("fabric: unknown scale %v", s))
	}
}

// SlackForPath returns the per-CUDA-call slack a path induces: the one-way
// latency, matching the paper's definition of slack as the time added by
// passing through the NICs and traversing the network (Figure 1).
func SlackForPath(p Path) sim.Duration { return p.Latency() }

// PathForSlack builds a synthetic path whose one-way latency equals the
// requested slack — the software analogue of the paper's sleep-based
// injection, useful for sweeping slack without constructing topologies.
// Like the other constructors it returns an error (not a panic) on
// invalid input, so sweeps over computed slacks fail a point, not the
// process.
func PathForSlack(slack sim.Duration) (Path, error) {
	if slack < 0 {
		return Path{}, fmt.Errorf("fabric: negative slack %v", slack)
	}
	if slack == 0 {
		return Path{}, nil
	}
	return NewPath(Hop{Name: "injected-slack", Latency: slack})
}
