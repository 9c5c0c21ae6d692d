package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// Three fuzzers guard the engine. FuzzRunStepOrder pins that RunUntil's
// scheduling loop delivers the same wake-ups as one-event Steps: it runs a
// random little concurrent program once under Run, where a parking process
// pops the next event itself and continues inline on a self-wake, and once
// under a Step loop, where Step delivers every wake-up, and demands
// identical completion logs. Both paths pop one queue, so FuzzEventHeap
// (microsecond times) and FuzzEventTiers (microseconds to tens of seconds,
// across the near/far split) check the queue itself against an independent
// sorted-slice reference.

// progOp is one instruction of a fuzzed proc: sleep, yield, fire, wait,
// wait-with-timeout over a small set of shared signals; after: schedule a
// callback that fires a signal and logs; or spawn: start a short child,
// from the proc itself or from a callback, that sleeps, fires a signal and
// logs. Under Run the children land on coroutines that finished procs left
// idle; under Step each gets a fresh one.
type progOp struct {
	kind int // 0 sleep, 1 yield, 2 fire, 3 wait, 4 wait-timeout, 5 after, 6 spawn
	arg  int
}

// decodeProgram turns fuzz bytes into up to 16 procs of up to 8 ops each.
// Decoding never fails: short input just means a short program.
func decodeProgram(data []byte) (procs [][]progOp) {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := int(data[0])
		data = data[1:]
		return b, true
	}
	b, _ := next()
	nprocs := 1 + b%16
	for i := 0; i < nprocs; i++ {
		b, ok := next()
		if !ok {
			break
		}
		nops := b % 9
		var ops []progOp
		for k := 0; k < nops; k++ {
			b, ok := next()
			if !ok {
				break
			}
			ops = append(ops, progOp{kind: b % 7, arg: b / 7})
		}
		procs = append(procs, ops)
	}
	return procs
}

// progEvent records one completed op: which proc, which op, and the
// simulated instant it finished at. An after op logs twice: once when it
// schedules its callback and once, with cb set, when the callback runs. A
// spawn op logs once when it returns and once, with child set, when the
// child finishes.
type progEvent struct {
	proc, op  int
	at        Time
	cb, child bool
}

// runProgram executes the program, driving the engine with Run or, when
// step is set, with a Step loop, and returns the completion log. Procs
// parked forever on a never-fired signal simply never log their wait — the
// same under Run and Step.
func runProgram(procs [][]progOp, step bool) []progEvent {
	env := NewEnv()
	defer env.Close()
	var sigs [4]*Signal
	for i := range sigs {
		sigs[i] = NewSignal(env)
	}
	var log []progEvent
	for pi, ops := range procs {
		pi, ops := pi, ops
		env.Spawn(fmt.Sprintf("p%d", pi), func(p *Proc) {
			for oi, op := range ops {
				switch op.kind {
				case 0:
					p.Sleep(Duration(op.arg%50) * Microsecond)
				case 1:
					p.Sleep(0)
				case 2:
					sigs[op.arg%4].Fire()
				case 3:
					sigs[op.arg%4].Wait(p)
				case 4:
					_ = sigs[op.arg%4].WaitTimeout(p, Duration(1+op.arg%20)*Microsecond)
				case 5:
					sig := sigs[op.arg%4]
					env.After(Duration(op.arg%8)*Microsecond, func() {
						sig.Fire()
						log = append(log, progEvent{proc: pi, op: oi, at: env.Now(), cb: true})
					})
				case 6:
					sig := sigs[(op.arg/2)%4]
					d := Duration(op.arg%3) * Microsecond
					spawn := func() {
						env.Spawn("child", func(c *Proc) {
							c.Sleep(d)
							sig.Fire()
							log = append(log, progEvent{proc: pi, op: oi, at: c.Now(), child: true})
						})
					}
					if op.arg%2 == 0 {
						spawn()
					} else {
						env.After(d, spawn)
					}
				}
				log = append(log, progEvent{proc: pi, op: oi, at: p.Now()})
			}
		})
	}
	if step {
		for env.Step() {
		}
	} else {
		env.Run()
	}
	return log
}

func FuzzRunStepOrder(f *testing.F) {
	// Seeds: a sleeper/firer mix, a wait-heavy program, a same-instant
	// pileup, one proc that sleeps and times out alone, so every wake-up
	// is a self-wake on the fast path, waiters released only by
	// callbacks, some due at the instant they are scheduled, and children
	// spawned from procs and from callbacks, some onto the coroutine of a
	// proc that has just finished.
	f.Add([]byte{7, 4, 0, 14, 11, 19, 3, 5, 25, 10, 8, 17, 4, 2, 70, 71, 72})
	f.Add([]byte{15, 8, 3, 3, 3, 3, 2, 2, 2, 2})
	f.Add([]byte{4, 2, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 8, 5, 1, 28, 4, 22, 11, 7, 10})
	f.Add([]byte{5, 3, 3, 10, 17, 2, 5, 12, 4, 19, 61, 3, 0, 5, 7})
	f.Add([]byte{3, 4, 6, 13, 0, 20, 3, 27, 6, 3, 3, 34, 0, 1, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		procs := decodeProgram(data)
		got := runProgram(procs, false)
		want := runProgram(procs, true)
		if len(got) != len(want) {
			t.Fatalf("Run completed %d ops, Step completed %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("delivery order diverges at step %d: Run logged %+v, Step logged %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzEventHeap drives the engine's queue through Env.schedule and Env.next
// and checks every pop against a reference: the live events' (at, seq) keys
// in a sorted slice. Each input byte is one operation. Its low two bits pick
// push (0, 1), pop (2) or cancel (3); the high bits pick a push time from
// eight values, so equal times that only seq can order are common, a pop's
// horizon, or the live event to cancel. Popped events are woken, which
// advances the clock and recycles them into the freelist the next push
// draws from.
func FuzzEventHeap(f *testing.F) {
	// Seeds: a same-instant pileup drained in FIFO order, a descending run
	// that fills two heap levels, pushes and pops interleaved across times,
	// cancels of head and tail, and pops whose horizon lies before the head.
	// The last seed is a mixed-time program that catches a push sifting
	// against the wrong parent index.
	f.Add([]byte{0, 0, 1, 1, 0, 2, 2, 2, 2, 2})
	f.Add([]byte{224, 192, 160, 128, 96, 64, 32, 0, 225, 193, 161, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{224, 32, 128, 2, 96, 1, 2, 64, 2, 30, 2, 2})
	f.Add([]byte{0, 32, 64, 96, 3, 7, 11, 2, 2, 2})
	f.Add([]byte{160, 192, 2, 6, 10, 255, 254, 3, 30, 2})
	f.Add([]byte("0A007AAA0000000000000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueue(t, data, func(arg int) Time {
			return Time(0).Add(Duration(arg>>3) * Microsecond)
		}, func(arg int) Time {
			if h := arg & 7; h < 7 {
				return Time(0).Add(Duration(h) * Microsecond)
			}
			return Time(math.Inf(1))
		})
	})
}

// FuzzEventTiers is FuzzEventHeap with push times and horizons from 1 µs
// to 70 s, so programs cross the queue's near/far split, park events in
// every far bucket, refill the heap from them and push below the base
// after a horizon stop. The six high bits of a push or pop byte are a
// digit (low three bits) times a power of ten from 1 µs to 10 s (high
// three bits); a pop with all six set has no horizon.
func FuzzEventTiers(f *testing.F) {
	push := func(arg int) byte { return byte(arg << 2) }
	pop := func(arg int) byte { return byte(arg<<2 | 2) }
	// Seeds: pushes across every decade past the heap-only size, drained;
	// the same interleaved with cancels and pops; and the program that
	// catches a re-file skipping the heap. Its two 7 µs events wait in the
	// heap when a pop with a 1 µs horizon stops before them, so the next
	// push, at 1 µs, lands below the base; were the heap's events not
	// re-filed, they would pop before the 2 µs push that follows.
	var wide, mixed []byte
	for i := 0; i < heapOnly+16; i++ {
		arg := (i*37)%63 | 1
		wide = append(wide, push(arg))
		mixed = append(mixed, push(arg))
		if i%5 == 4 {
			mixed = append(mixed, byte(i<<2|3), pop(arg))
		}
	}
	wide = append(wide, pop(63))
	f.Add(wide)
	f.Add(mixed)
	refile := []byte{push(7), push(7)}
	for i := 0; i < heapOnly; i++ {
		refile = append(refile, push(8*(3+i%4)+1+i%7))
	}
	refile = append(refile, pop(1), push(1), push(2), pop(63))
	f.Add(refile)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueue(t, data, wideTime, func(arg int) Time {
			if arg == 63 {
				return Time(math.Inf(1))
			}
			return wideTime(arg)
		})
	})
}

// wideTime decodes six bits into an instant from 0 to 70 s: the low three
// bits are a digit and the high three a power of ten from 1 µs to 10 s.
func wideTime(arg int) Time {
	d := Duration(arg & 7)
	for k := arg >> 3; k > 0; k-- {
		d *= 10
	}
	return Time(0).Add(d * Microsecond)
}

// checkQueue runs one FuzzEventHeap-style program: pushAt decodes a push
// byte's high six bits into its time and horizon a pop byte's into its
// horizon.
func checkQueue(t *testing.T, data []byte, pushAt, horizon func(arg int) Time) {
	// The reference's inserts and cancels are linear; cap the program
	// so long mutated inputs stay fast to run and to minimize. 512 ops
	// still build a heap five levels deep.
	if len(data) > 512 {
		data = data[:512]
	}
	env := NewEnv()
	p := &Proc{env: env, parkIdx: -1}
	type entry struct {
		at  Time
		seq uint64
		ev  *event
	}
	var ref []entry // live events, sorted by (at, seq)
	pop := func(step int, horizon Time) {
		env.horizon = horizon
		before := env.now
		ev := env.next()
		switch {
		case len(ref) == 0:
			if ev != nil || env.now != before {
				t.Fatalf("step %d: empty queue returned %v and moved the clock %v -> %v", step, ev, before, env.now)
			}
		case ref[0].at > horizon:
			if ev != nil {
				t.Fatalf("step %d: popped (%v, %d) past horizon %v", step, ev.at, ev.seq, horizon)
			}
			if want := max(before, horizon); env.now != want {
				t.Fatalf("step %d: clock %v after a pop past the horizon, want %v", step, env.now, want)
			}
		default:
			if ev != ref[0].ev || ev.at != ref[0].at || ev.seq != ref[0].seq {
				t.Fatalf("step %d: popped %v, want (%v, %d)", step, ev, ref[0].at, ref[0].seq)
			}
			ref = ref[1:]
			env.wake(ev)
		}
	}
	for step, b := range data {
		arg := int(b >> 2)
		switch b & 3 {
		case 0, 1:
			at := pushAt(arg)
			ev := env.schedule(at, p, wakeTimer)
			p.waits = p.waits[:0]
			want := entry{at: max(at, env.now), seq: ev.seq, ev: ev}
			if ev.at != want.at {
				t.Fatalf("step %d: scheduled at %v, want %v", step, ev.at, want.at)
			}
			i := sort.Search(len(ref), func(i int) bool {
				return want.at < ref[i].at || (!(ref[i].at < want.at) && want.seq < ref[i].seq)
			})
			ref = append(ref, entry{})
			copy(ref[i+1:], ref[i:])
			ref[i] = want
		case 2:
			pop(step, horizon(arg))
		case 3:
			if len(ref) > 0 {
				i := arg % len(ref)
				ref[i].ev.cancelled = true
				ref = append(ref[:i], ref[i+1:]...)
			}
		}
	}
	for len(ref) > 0 {
		pop(len(data), Time(math.Inf(1)))
	}
	if ev := env.next(); ev != nil || env.queued() != 0 {
		t.Fatalf("drained queue still holds %d events, next = %v", env.queued(), ev)
	}
}
