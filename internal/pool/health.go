package pool

import "repro/internal/sim"

// health.Pool implementation. The heartbeat control plane's verdicts
// reach the scheduler through the mailbox, exactly like job completions and migration copies, so a dead
// server's allocations re-place through the same machinery a defrag
// sweep uses.

// Servers returns the pool's server count.
func (s *Scheduler) Servers() int { return s.topo.Servers() }

// Live reports whether a server is in rotation. It samples the published
// rotation view from the health plane's domain; the scheduler is the
// only writer.
func (s *Scheduler) Live(i int) bool {
	return i >= 0 && i < len(s.live) && s.live[i]
}

// Drain posts the control plane's verdict to the scheduler, which
// re-places (or kills) every allocation on the server.
func (s *Scheduler) Drain(p *sim.Proc, server int) error {
	s.post(msgDrain, server)
	return nil
}

// Readmit posts a recovered server back into rotation, blank.
func (s *Scheduler) Readmit(server int) error {
	s.post(msgReadmit, server)
	return nil
}
