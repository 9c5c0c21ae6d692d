package sim

// Shard is an event domain within an Env: a spawn-time label for the
// processes that model one hardware domain (a device, a node, an OpenMP
// thread). Shards change nothing about delivery order — every wake-up goes
// through the environment's single (time, seq) queue — so experiment
// outputs are identical with one shard or fifty. What the label buys is
// ownership: the cdivet `//cdivet:shard` rules check that state owned by
// one domain is mutated only by processes spawned on it, or after a Signal
// wait that orders the write.
type Shard struct {
	env *Env
	id  int
}

// NewShard creates an additional event domain. Processes that model one
// hardware domain (a device, a node, a submitter thread) should share a
// shard; unrelated domains should get their own.
func (e *Env) NewShard() *Shard {
	if len(e.shardSlab) == 0 {
		e.shardSlab = make([]Shard, 8)
	}
	s := &e.shardSlab[0]
	e.shardSlab = e.shardSlab[1:]
	s.env, s.id = e, e.nshards
	e.nshards++
	return s
}

// Env returns the environment that owns the shard.
func (s *Shard) Env() *Env { return s.env }

// ID returns the shard's creation index; shard 0 is the environment's
// default domain.
func (s *Shard) ID() int { return s.id }

// Spawn creates a process in this shard running fn, starting at the
// current virtual time.
func (s *Shard) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAt(0, name, fn)
}

// SpawnAt is Spawn with a start delay.
func (s *Shard) SpawnAt(delay Duration, name string, fn func(p *Proc)) *Proc {
	return s.env.spawnAt(s, delay, name, fn)
}
