package pool

import "repro/internal/sim"

// The defragmenter. Churn shatters whole-server free blocks into
// sub-gang fragments; the sweep picks the emptiest migratable server and
// consolidates its allocations onto stranded fragments elsewhere, paying
// real migration cost (handle-table bytes replayed over the crossed
// fabric tier) to mint a whole-server hole. Sweeps are planned against a
// scratch copy of the free list and executed only when the plan strictly
// reduces stranded capacity (or provably unblocks the queue), so a
// well-packed pool — the zero-churn arm — never migrates at all.

// maybeDefrag arms a consolidation sweep when enabled, idle, due, and
// worthwhile.
func (s *Scheduler) maybeDefrag(now sim.Time) {
	if !s.cfg.Defrag || s.defragBusy || now.Sub(s.nextDefrag) < 0 {
		return
	}
	if len(s.queue) == 0 && s.stranded < s.cfg.StrandedTrigger {
		return
	}
	if s.sweep(now) {
		s.nextDefrag = now.Add(s.cfg.DefragEvery)
	}
}

// move is one planned migration.
type move struct {
	id   int
	from int
	to   int
}

// sweep picks a victim server, plans best-fit single-server targets for
// its allocations against a scratch free list, and — if the plan
// strictly reduces stranded capacity or unblocks a queued gang — commits
// the capacity swap and spawns the copy processes. Reports whether a
// sweep ran.
func (s *Scheduler) sweep(now sim.Time) bool {
	v := s.pickVictim()
	if v < 0 {
		return false
	}
	moves, ok := s.planSweep(v)
	if !ok {
		return false
	}
	for _, mv := range moves {
		s.executeMove(now, mv)
	}
	if s.sweepOutstanding > 0 {
		s.defragBusy = true
	}
	return true
}

// pickVictim returns the live, unpinned server with the smallest nonzero
// batch occupancy whose every allocation is single-server (multi-server
// gangs and serving replicas do not migrate), or -1.
func (s *Scheduler) pickVictim() int {
	best, bestOcc := -1, 0
	for sv := range s.free {
		if !s.live[sv] || s.pinned[sv] > 0 {
			continue
		}
		occ := s.topo.GPUsPerServer - s.free[sv]
		if occ <= 0 || (best >= 0 && occ >= bestOcc) {
			continue
		}
		movable := true
		for _, id := range s.jobsOn[sv] {
			if len(s.allocs[id].slices) != 1 {
				movable = false
				break
			}
		}
		if movable {
			best, bestOcc = sv, occ
		}
	}
	return best
}

// planSweep assigns each of the victim's jobs a best-fit target against a
// scratch free list: prefer stranded fragments (free < refGang), then the
// tightest leftover, then the lowest index. The plan only stands if the
// exact stranded-capacity delta is negative, or the queue is nonempty and
// the minted whole-server hole beats today's largest block.
func (s *Scheduler) planSweep(v int) ([]move, bool) {
	plan := append(s.planFree[:0], s.free...)
	s.planFree = plan
	moves := s.scratchMoves[:0]
	for _, id := range s.jobsOn[v] {
		g := s.jobs[id].Gang
		best, bestScore := -1, 0
		for sv, f := range plan {
			if sv == v || !s.live[sv] || f < g {
				continue
			}
			// Stranded donors sort ahead of whole blocks; within a class,
			// tighter leftover wins; ties go to the lower index.
			score := (f - g) * 2
			if f >= s.refGang {
				score++
			}
			if best < 0 || score < bestScore {
				best, bestScore = sv, score
			}
		}
		if best < 0 {
			s.scratchMoves = moves
			return nil, false
		}
		plan[best] -= g
		moves = append(moves, move{id: id, from: v, to: best})
	}
	s.scratchMoves = moves

	// The victim ends fully free (never stranded); targets re-price at
	// their planned fragments.
	delta := -strandedContrib(s.free[v], s.capEff(v), s.refGang)
	for sv, f := range plan {
		if sv != v && f != s.free[sv] {
			capEff := s.capEff(sv)
			delta += strandedContrib(f, capEff, s.refGang) - strandedContrib(s.free[sv], capEff, s.refGang)
		}
	}
	if delta < 0 {
		return moves, true
	}
	if len(s.queue) > 0 && s.topo.GPUsPerServer > s.largest() {
		return moves, true
	}
	return nil, false
}

// executeMove commits one migration: the capacity swap is atomic at copy
// start (pre-copy live migration — the source keeps running until the
// replay lands, so goodput sees no gap), the handle-table bytes are
// charged at the crossed tier, and a copy process reports back when the
// replay completes.
func (s *Scheduler) executeMove(now sim.Time, mv move) {
	a := &s.allocs[mv.id]
	j := s.jobs[mv.id]
	s.unclaim(mv.from, j.Gang)
	s.claim(mv.to, j.Gang)
	s.removeJobFrom(mv.from, mv.id)
	s.jobsOn[mv.to] = append(s.jobsOn[mv.to], mv.id)
	a.slices[0] = slice{server: mv.to, gpus: j.Gang}

	cross := s.topo.CrossingScale(mv.from, mv.to)
	cost := s.cfg.MigratePenalty + s.migCost[j.Shape][gangIdx(j.Gang)][cross]
	s.stats.Migrations++
	s.stats.MigrationBytes += int64(j.Gang) * j.Shape.BytesPerGPU()
	s.sweepOutstanding++
	id := mv.id
	s.env.SpawnAt(cost, "pool-migrate", func(mp *sim.Proc) {
		s.post(msgMigrated, id)
	})
}
