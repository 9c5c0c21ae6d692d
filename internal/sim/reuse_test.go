package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// runWithin runs env to completion, failing the test if Run does not
// return within a few seconds.
func runWithin(t *testing.T, env *Env) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		env.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
}

// quietGoroutines returns the goroutine count once it has held steady
// for a few milliseconds, so goroutines other tests released have exited.
func quietGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 500 && same < 5; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// settleGoroutines waits for exiting goroutines to finish and fails if
// the count does not come back to base. Each coroutine is a goroutine to
// the runtime, and a stopped one can take a moment to be counted out.
func settleGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	for i := 0; i < 500 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%s: %d goroutines, want the baseline %d", when, got, base)
	}
}

// A finished process's coroutine pops the next wake-up before it goes
// idle. Here that pop runs a callback that spawns at delay 0; had the
// coroutine gone idle first, the spawn would take the coroutine still
// running the pop.
func TestCallbackSpawnWhileDyingGoroutineHoldsBaton(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var ran []string
	env.Spawn("parent", func(p *Proc) {
		p.Env().After(0, func() {
			p.Env().Spawn("child", func(c *Proc) {
				c.Sleep(Microsecond)
				ran = append(ran, "child")
			})
		})
		ran = append(ran, "parent")
	})
	runWithin(t, env)
	if len(ran) != 2 || ran[0] != "parent" || ran[1] != "child" {
		t.Fatalf("ran %v, want [parent child]", ran)
	}
	want := Stats{Scheduled: 4, Delivered: 4, Callbacks: 1, Spawns: 2, Goroutines: 2, SelfWakes: 1, Switches: 2, PeakPending: 1}
	if st := env.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// A process that spawns a child and returns leaves its coroutine idle, and
// the child's own spawn runs there. Step delivers every wake-up itself and
// creates a coroutine per process, but delivers the same events.
func TestSpawnThenReturnReusesGoroutine(t *testing.T) {
	for _, step := range []bool{false, true} {
		env := NewEnv()
		var ran []string
		env.Spawn("parent", func(p *Proc) {
			p.Env().Spawn("child", func(c *Proc) {
				c.Sleep(Microsecond)
				c.Env().Spawn("grandchild", func(g *Proc) { ran = append(ran, g.name) })
				ran = append(ran, c.name)
			})
			ran = append(ran, p.name)
		})
		if step {
			for env.Step() {
			}
		} else {
			runWithin(t, env)
		}
		if len(ran) != 3 || ran[0] != "parent" || ran[1] != "child" || ran[2] != "grandchild" {
			t.Fatalf("step=%v: ran %v, want [parent child grandchild]", step, ran)
		}
		// Run: the loop starts the parent, the finished parent pops the
		// child's start, and the finished child pops the grandchild's,
		// which runs on the parent's coroutine. Step delivers all four
		// events itself.
		want := Stats{Scheduled: 4, Delivered: 4, Spawns: 3, Goroutines: 2, SelfWakes: 1, Switches: 3, PeakPending: 1}
		if step {
			want.Goroutines, want.SelfWakes, want.Switches = 3, 0, 4
		}
		if st := env.Stats(); st != want {
			t.Fatalf("step=%v: stats %+v, want %+v", step, st, want)
		}
		env.Close()
	}
}

// Idle coroutines do not outlive their run segment, and Close unwinds
// the parked ones: the goroutine count returns to where it started.
func TestProcGoroutinesReleased(t *testing.T) {
	base := quietGoroutines()

	// A fan of short-lived processes, each spawning the next wave.
	env := NewEnv()
	var wave func(p *Proc, depth int)
	wave = func(p *Proc, depth int) {
		p.Sleep(Microsecond)
		if depth < 4 {
			for i := 0; i < 3; i++ {
				p.Env().Spawn("wave", func(q *Proc) { wave(q, depth+1) })
			}
		}
	}
	for i := 0; i < 3; i++ {
		env.Spawn("root", func(p *Proc) { wave(p, 0) })
	}
	runWithin(t, env)
	st := env.Stats()
	if st.Spawns != 3+9+27+81+243 || st.Goroutines >= st.Spawns {
		t.Fatalf("spawns %d, goroutines %d: want 363 spawns, most on reused coroutines", st.Spawns, st.Goroutines)
	}
	settleGoroutines(t, base, "after Run")
	env.Close()

	// Finished processes go idle mid-segment while others stay parked on
	// a signal, on a timer past the horizon, or not yet started.
	env = NewEnv()
	sig := NewSignal(env)
	for i := 0; i < 4; i++ {
		env.Spawn("done", func(p *Proc) {
			p.Sleep(Microsecond)
			p.Env().Spawn("blocked", func(q *Proc) { sig.Wait(q) })
			p.Env().Spawn("sleeper", func(q *Proc) { q.Sleep(Second) })
		})
	}
	env.SpawnAt(Second, "late", func(*Proc) {})
	env.RunUntil(Time(0).Add(Millisecond))
	if n := len(env.Blocked()); n != 4 {
		t.Fatalf("%d blocked processes, want 4", n)
	}
	env.Close()
	settleGoroutines(t, base, "after Close")
}

// A process panic resurfaces, with its own value, in the caller of Run or
// Step. At the panic one process is parked on a signal, one sleeps, one
// is not yet started and, under Run, a finished one has left its
// coroutine idle; the idle coroutine is stopped as Run unwinds, and Close
// unwinds the rest, so the goroutine count returns to where it started.
func TestProcessPanicReachesCaller(t *testing.T) {
	base := quietGoroutines()
	type boom struct{ at Time }
	for _, step := range []bool{false, true} {
		env := NewEnv()
		sig := NewSignal(env)
		env.Spawn("done", func(*Proc) {})
		env.Spawn("blocked", func(p *Proc) { sig.Wait(p) })
		env.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
		env.SpawnAt(Second, "unstarted", func(*Proc) {})
		env.Spawn("panicker", func(p *Proc) {
			p.Sleep(Microsecond)
			panic(boom{p.Now()})
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			if step {
				for env.Step() {
				}
			} else {
				env.Run()
			}
			return nil
		}()
		if want := (boom{Time(0).Add(Microsecond)}); got != want {
			t.Fatalf("step=%v: recovered %v, want the process's own panic value %v", step, got, want)
		}
		if !step && env.idle != nil {
			t.Fatal("Run left idle coroutines behind after a process panic")
		}
		env.Close()
		settleGoroutines(t, base, fmt.Sprintf("step=%v: after Close", step))
	}
}

// In the middle of a run, spawning a process that finishes allocates
// nothing: the child takes the Proc the previous child returned, runs on
// the coroutine it left idle, and its start event comes from the free
// list.
func TestSpawnOnIdleGoroutineAllocatesNothing(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var allocs float64
	child := func(*Proc) {}
	env.Spawn("parent", func(p *Proc) {
		spawn := func() {
			p.Env().Spawn("child", child)
			p.Sleep(Microsecond)
		}
		for i := 0; i < 10; i++ { // warm-up: the idle coroutine, the freelist
			spawn()
		}
		allocs = testing.AllocsPerRun(100, spawn)
	})
	runWithin(t, env)
	if allocs != 0 {
		t.Fatalf("spawn-and-finish allocates %.1f objects, want 0", allocs)
	}
	if st := env.Stats(); st.Spawns != 1+10+101 || st.Goroutines != 2 {
		t.Fatalf("spawns %d, goroutines %d: want 112 spawns on 2 coroutines", st.Spawns, st.Goroutines)
	}
}

// A cold spawn allocates one Proc. It carries the body and the free-list
// link now, but must stay in the 96-byte size class it had before.
func TestProcFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n > 96 {
		t.Fatalf("Proc is %d bytes, want at most 96", n)
	}
}

// The free-list link and the id live in an event's seq and padding, so an
// event stays 40 bytes.
func TestEventFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 40 {
		t.Fatalf("event is %d bytes, want at most 40", n)
	}
}

// The far tier adds nothing to what NewEnv and an event block allocate:
// an Env stays in the 240-byte size class and a block of events, with its
// pointer to the far-tier links, in the 2,688-byte one that the events
// alone fill. An Env whose events all stay near allocates no other queue
// state.
func TestEnvAndEventBlockKeepSizeClasses(t *testing.T) {
	if n := unsafe.Sizeof(Env{}); n > 240 {
		t.Fatalf("Env is %d bytes, want at most 240", n)
	}
	if n := unsafe.Sizeof(eventBlock{}); n > 2688 {
		t.Fatalf("an event block is %d bytes, want at most 2688", n)
	}
	env := NewEnv()
	defer env.Close()
	for i := 0; i < heapOnly-1; i++ {
		env.After(Duration(uint64(1)<<(i%32))*Microsecond, func() {})
	}
	env.Run()
	if env.far != nil || env.chunks[0].next != nil {
		t.Fatalf("%d pending events made far-tier state", heapOnly-1)
	}
}

// A warm Env parks far-future events in the far tier, refills the heap
// from its buckets (splitting each into lower ones) and pops them all
// without allocating.
func TestWarmFarTierAllocatesNothing(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	n := 0
	tick := func() { n++ }
	var buckets int
	cycle := func() {
		// Delays from 1 µs to about 9 minutes, interleaved, so the events
		// spread over many buckets.
		for i := 0; i < 4*heapOnly; i++ {
			env.After(Duration(1+i%5)*Duration(uint64(1)<<(i*7%29))*Microsecond, tick)
		}
		buckets = bits.OnesCount64(env.far.mask)
		env.Run()
	}
	cycle() // warm-up: the events, the far tier and its links
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm far-tier cycle allocates %.1f objects, want 0", allocs)
	}
	if buckets < 4 || n != 22*4*heapOnly || env.queued() != 0 {
		t.Fatalf("%d far buckets in use, %d callbacks ran, %d queued; want at least 4, %d and 0",
			buckets, n, env.queued(), 22*4*heapOnly)
	}
}
