package serve

// CapacitySignal tells the admission gate whether pool capacity is
// currently degraded. The health control plane's registry satisfies it;
// the engine samples it at arrival and dequeue time. Sampling is a
// read-only observation of state another process mutates, and the global
// event order makes every sample deterministic.
type CapacitySignal interface {
	Degraded() bool
}

// Admission tunes deadline-aware load shedding. The zero value disables
// shedding entirely — the engine then behaves byte-identically to one
// built before admission control existed.
type Admission struct {
	// ShedExpired sheds queued requests whose queue wait alone already
	// exceeds their tenant's SLO: even an instant execution could not
	// meet the objective, so serving them is pure queue poison. Shed
	// requests count as shed, not failed, and spend no device time.
	ShedExpired bool
	// MaxQueue caps the live admission-queue depth. An arrival that finds
	// the queue full sheds the lowest-priority queued request (ties:
	// latest arrival) — or itself, if nothing queued is lower-priority.
	// Zero means unbounded.
	MaxQueue int
	// Capacity gates both mechanisms: shedding is armed only while
	// Capacity reports degraded. A nil Capacity arms them permanently.
	Capacity CapacitySignal
}

// enabled reports whether any shedding mechanism is configured.
func (a Admission) enabled() bool { return a.ShedExpired || a.MaxQueue > 0 }

// armed reports whether shedding applies right now.
func (a Admission) armed() bool {
	return a.enabled() && (a.Capacity == nil || a.Capacity.Degraded())
}
