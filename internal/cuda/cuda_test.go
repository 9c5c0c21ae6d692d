package cuda

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// testSpec gives round numbers and no hidden overheads.
func testSpec() gpu.Spec {
	return gpu.Spec{
		Name:            "test-gpu",
		MemoryBytes:     1 << 30,
		MemoryBandwidth: 1e12,
		PeakFLOPS:       1e12,
		H2DBandwidth:    1e9,
		D2HBandwidth:    1e9,
		DMAEngines:      2,
	}
}

// newCtx builds an env/device/context with zero call overhead for exact
// timing assertions.
func newCtx(t *testing.T) (*sim.Env, *Context) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dev, err := gpu.NewDevice(env, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	return env, NewContext(dev, Config{CallOverhead: -1})
}

func TestMallocFree(t *testing.T) {
	env, ctx := newCtx(t)
	env.Spawn("host", func(p *sim.Proc) {
		ptr, err := ctx.Malloc(p, 1024)
		if err != nil {
			t.Errorf("Malloc: %v", err)
		}
		if err := ctx.Free(p, ptr); err != nil {
			t.Errorf("Free: %v", err)
		}
		if err := ctx.Free(p, ptr); err == nil {
			t.Error("double Free succeeded")
		}
	})
	env.Run()
}

func TestSynchronousMemcpyBlocksForTransfer(t *testing.T) {
	env, ctx := newCtx(t)
	var elapsed sim.Duration
	env.Spawn("host", func(p *sim.Proc) {
		ptr, _ := ctx.Malloc(p, 10_000_000)
		start := p.Now()
		if err := ctx.MemcpyH2D(p, ptr, 1_000_000); err != nil { // 1ms at 1GB/s
			t.Errorf("MemcpyH2D: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	env.Run()
	if math.Abs(float64(elapsed-1*sim.Millisecond)) > 1e-12 {
		t.Errorf("sync memcpy took %v, want 1ms", elapsed)
	}
}

func TestMemcpyValidation(t *testing.T) {
	env, ctx := newCtx(t)
	env.Spawn("host", func(p *sim.Proc) {
		ptr, _ := ctx.Malloc(p, 100)
		if err := ctx.MemcpyH2D(p, ptr, 200); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("oversize copy error = %v", err)
		}
		if err := ctx.MemcpyD2H(p, gpu.Ptr(999), 10); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("bogus pointer error = %v", err)
		}
		if err := ctx.MemcpyH2D(p, ptr, -1); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("negative size error = %v", err)
		}
	})
	env.Run()
}

// kernelCount is a gpu.Listener that counts completed kernels.
type kernelCount int

func (n *kernelCount) OnKernel(gpu.KernelEvent) { *n++ }
func (*kernelCount) OnCopy(gpu.CopyEvent)       {}

func TestLaunchIsAsynchronous(t *testing.T) {
	env, ctx := newCtx(t)
	var done kernelCount
	ctx.dev.Listen(&done)
	env.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		ctx.Launch(p, gpu.Kernel{Name: "k", FixedTime: 5 * sim.Millisecond}, nil)
		if p.Now() != start {
			t.Errorf("launch blocked for %v (zero-overhead config)", p.Now().Sub(start))
		}
		ctx.DeviceSynchronize(p)
		if got := p.Now().Sub(start); math.Abs(float64(got-5*sim.Millisecond)) > 1e-12 {
			t.Errorf("kernel completed after %v, want 5ms", got)
		}
		if done != 1 {
			t.Errorf("%d kernels completed after device sync, want 1", done)
		}
	})
	env.Run()
}

func TestLaunchOverheadCharged(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	spec := testSpec()
	spec.LaunchOverhead = 4 * sim.Microsecond
	dev, _ := gpu.NewDevice(env, spec)
	ctx := NewContext(dev, Config{CallOverhead: -1})
	env.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		ctx.Launch(p, gpu.Kernel{Name: "k", FixedTime: 1 * sim.Millisecond}, nil)
		if got := p.Now().Sub(start); math.Abs(float64(got-4*sim.Microsecond)) > 1e-12 {
			t.Errorf("launch host cost = %v, want 4µs", got)
		}
	})
	env.Run()
}

func TestCallOverheadDefaultApplied(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dev, _ := gpu.NewDevice(env, testSpec())
	ctx := NewContext(dev, Config{}) // default 1.5µs
	env.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		if _, err := ctx.Malloc(p, 64); err != nil {
			t.Fatal(err)
		}
		if got := p.Now().Sub(start); math.Abs(float64(got-DefaultCallOverhead)) > 1e-12 {
			t.Errorf("call overhead = %v, want %v", got, DefaultCallOverhead)
		}
	})
	env.Run()
}

func TestStreamOrderingViaContext(t *testing.T) {
	env, ctx := newCtx(t)
	env.Spawn("host", func(p *sim.Proc) {
		s := ctx.StreamCreate(p)
		ctx.Launch(p, gpu.Kernel{Name: "a", FixedTime: 1 * sim.Millisecond}, s)
		ctx.Launch(p, gpu.Kernel{Name: "b", FixedTime: 1 * sim.Millisecond}, s)
		start := p.Now()
		ctx.StreamSynchronize(p, s)
		if got := p.Now().Sub(start); math.Abs(float64(got-2*sim.Millisecond)) > 1e-12 {
			t.Errorf("stream drained after %v, want 2ms", got)
		}
		ctx.StreamDestroy(p, s)
	})
	env.Run()
	if blocked := env.Blocked(); len(blocked) != 0 {
		t.Errorf("blocked processes after stream destroy: %v", blocked)
	}
}

func TestEventsMeasureGPUTime(t *testing.T) {
	// The proxy times its compute loop with GPU-side events; the elapsed
	// time between two events brackets the enqueued work.
	env, ctx := newCtx(t)
	env.Spawn("host", func(p *sim.Proc) {
		s := ctx.StreamCreate(p)
		startEv := ctx.EventRecord(p, s)
		ctx.Launch(p, gpu.Kernel{Name: "k", FixedTime: 3 * sim.Millisecond}, s)
		endEv := ctx.EventRecord(p, s)
		ctx.EventSynchronize(p, startEv)
		ctx.EventSynchronize(p, endEv)
		d, err := ElapsedTime(startEv, endEv)
		if err != nil {
			t.Fatalf("ElapsedTime: %v", err)
		}
		if math.Abs(float64(d-3*sim.Millisecond)) > 1e-12 {
			t.Errorf("event elapsed = %v, want 3ms", d)
		}
	})
	env.Run()
}

func TestElapsedTimeRequiresSynchronizedEvents(t *testing.T) {
	env, ctx := newCtx(t)
	env.Spawn("host", func(p *sim.Proc) {
		s := ctx.StreamCreate(p)
		ctx.Launch(p, gpu.Kernel{Name: "k", FixedTime: 1 * sim.Millisecond}, s)
		e := ctx.EventRecord(p, s)
		if _, err := ElapsedTime(e, e); err == nil {
			t.Error("ElapsedTime on pending event succeeded")
		}
		if _, err := ElapsedTime(nil, nil); err == nil {
			t.Error("ElapsedTime on nil events succeeded")
		}
		ctx.DeviceSynchronize(p)
	})
	env.Run()
}

// recorder captures interposed calls.
type recorder struct {
	before, after []CallInfo
}

func (r *recorder) Before(p *sim.Proc, info CallInfo) { r.before = append(r.before, info) }
func (r *recorder) After(p *sim.Proc, info CallInfo)  { r.after = append(r.after, info) }

func TestInterposerSeesEveryCall(t *testing.T) {
	env, ctx := newCtx(t)
	rec := &recorder{}
	ctx.Interpose(rec)
	env.Spawn("host", func(p *sim.Proc) {
		ptr, _ := ctx.Malloc(p, 1024)
		ctx.MemcpyH2D(p, ptr, 1024)
		ctx.Launch(p, gpu.Kernel{Name: "k", FixedTime: 1 * sim.Microsecond}, nil)
		ctx.MemcpyD2H(p, ptr, 1024)
		ctx.DeviceSynchronize(p)
		ctx.Free(p, ptr)
	})
	env.Run()
	if len(rec.before) != 6 || len(rec.after) != 6 {
		t.Fatalf("interposer saw %d/%d calls, want 6/6", len(rec.before), len(rec.after))
	}
	classes := []CallClass{ClassMemory, ClassMemcpyH2D, ClassLaunch, ClassMemcpyD2H, ClassSync, ClassMemory}
	for i, want := range classes {
		if rec.before[i].Class != want {
			t.Errorf("call %d class = %v, want %v", i, rec.before[i].Class, want)
		}
	}
	// The 5 link-crossing calls per proxy iteration: 3 transfers + launch
	// + sync (Table/Equation 1's num_CUDAcalls).
	crossing := 0
	for _, c := range rec.before {
		if c.Class.CrossesLink() {
			crossing++
		}
	}
	if crossing != 4 { // one iteration here has 2 memcpy + launch + sync
		t.Errorf("crossing calls = %d, want 4", crossing)
	}
}

func TestInterposerAfterRunsInReverseOrder(t *testing.T) {
	env, ctx := newCtx(t)
	var order []string
	mk := func(name string) Interposer {
		return interposerFunc{
			before: func(*sim.Proc, CallInfo) { order = append(order, name+".before") },
			after:  func(*sim.Proc, CallInfo) { order = append(order, name+".after") },
		}
	}
	ctx.Interpose(mk("a"))
	ctx.Interpose(mk("b"))
	env.Spawn("host", func(p *sim.Proc) {
		ctx.Malloc(p, 64)
	})
	env.Run()
	want := []string{"a.before", "b.before", "b.after", "a.after"}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCallClassStrings(t *testing.T) {
	for c, want := range map[CallClass]string{
		ClassMemcpyH2D: "memcpy-h2d",
		ClassMemcpyD2H: "memcpy-d2h",
		ClassMemcpyD2D: "memcpy-d2d",
		ClassLaunch:    "launch",
		ClassSync:      "sync",
		ClassMemory:    "memory",
		ClassMisc:      "misc",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if ClassMemory.CrossesLink() || ClassMisc.CrossesLink() {
		t.Error("memory/misc classes must not count as link-crossing")
	}
	if !ClassLaunch.CrossesLink() || !ClassSync.CrossesLink() {
		t.Error("launch/sync must count as link-crossing")
	}
}

type interposerFunc struct {
	before, after func(*sim.Proc, CallInfo)
}

func (f interposerFunc) Before(p *sim.Proc, i CallInfo) { f.before(p, i) }
func (f interposerFunc) After(p *sim.Proc, i CallInfo)  { f.after(p, i) }

func TestLaunchSyncBlocksForKernel(t *testing.T) {
	env, ctx := newCtx(t)
	env.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		ctx.LaunchSync(p, gpu.Kernel{Name: "k", FixedTime: 3 * sim.Millisecond}, nil)
		if got := p.Now().Sub(start); math.Abs(float64(got-3*sim.Millisecond)) > 1e-12 {
			t.Errorf("LaunchSync returned after %v, want 3ms", got)
		}
	})
	env.Run()
}

// TestWarmCallsAllocateNothing: with no interposers, the synchronous
// copy and launch and an asynchronous launch hand their ops back to the
// device, so once warm the calls allocate nothing. Each count is the total
// of 200 calls after 200 warm-up calls, so even one op chunk shows.
func TestWarmCallsAllocateNothing(t *testing.T) {
	env, ctx := newCtx(t)
	k := gpu.Kernel{Name: "k", FixedTime: 10 * sim.Microsecond}
	allocs := map[string]float64{}
	env.Spawn("host", func(p *sim.Proc) {
		ptr, err := ctx.Malloc(p, 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		measure := func(call string, f func()) {
			allocs[call] = testing.AllocsPerRun(1, func() {
				for range 200 {
					f()
				}
			})
		}
		measure("MemcpyH2D", func() {
			if err := ctx.MemcpyH2D(p, ptr, 4096); err != nil {
				t.Error(err)
			}
		})
		measure("LaunchSync", func() { ctx.LaunchSync(p, k, nil) })
		measure("Launch+StreamSynchronize", func() {
			ctx.Launch(p, k, nil)
			ctx.StreamSynchronize(p, nil)
		})
	})
	env.Run()
	for call, n := range allocs {
		if n != 0 {
			t.Errorf("200 warm %s calls allocate %v times, want 0", call, n)
		}
	}
	if len(allocs) != 3 {
		t.Errorf("measured %d calls, want 3", len(allocs))
	}
}

// Contexts on parallel workers share the process-wide launch-label cache:
// each worker launches one kernel name the others also launch and one of
// its own, and every label is the plain concatenation. Run it with -race.
func TestLaunchLabelsSharedAcrossWorkers(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	logs := make([]recorder, workers)
	for w := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := sim.NewEnv()
			defer env.Close()
			dev, err := gpu.NewDevice(env, testSpec())
			if err != nil {
				t.Error(err)
				return
			}
			ctx := NewContext(dev, Config{CallOverhead: -1})
			ctx.Interpose(&logs[w])
			own := gpu.Kernel{Name: "own" + strconv.Itoa(w), FixedTime: sim.Microsecond}
			shared := gpu.Kernel{Name: "shared", FixedTime: sim.Microsecond}
			env.Spawn("host", func(p *sim.Proc) {
				for i := 0; i < 50; i++ {
					ctx.Launch(p, shared, nil)
					ctx.LaunchSync(p, own, nil)
				}
			})
			env.Run()
		}()
	}
	wg.Wait()
	for w, l := range logs {
		want := []string{"cudaLaunchKernel:shared", "cudaLaunchKernelSync:own" + strconv.Itoa(w)}
		if len(l.after) != 100 {
			t.Fatalf("worker %d recorded %d calls, want 100", w, len(l.after))
		}
		for i, c := range l.after {
			if c.Name != want[i%2] {
				t.Fatalf("worker %d call %d named %q, want %q", w, i, c.Name, want[i%2])
			}
		}
	}
}
