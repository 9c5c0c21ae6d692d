package gpu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

// fastSpec is a small, round-numbered spec that makes expected durations
// easy to compute by hand.
func fastSpec() Spec {
	return Spec{
		Name:             "test-gpu",
		MemoryBytes:      1 << 30,
		MemoryBandwidth:  1e12,
		PeakFLOPS:        1e12,
		H2DBandwidth:     1e9,
		D2HBandwidth:     1e9,
		CopyLatency:      0,
		LaunchOverhead:   0,
		MinKernelTime:    0,
		WarmupRate:       0,
		WarmupSaturation: 0,
		DMAEngines:       2,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := A100().Validate(); err != nil {
		t.Fatalf("A100 spec invalid: %v", err)
	}
	bad := A100()
	bad.MemoryBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero memory accepted")
	}
	bad = A100()
	bad.DMAEngines = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero DMA engines accepted")
	}
	bad = A100()
	bad.WarmupRate = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative warmup accepted")
	}
}

// TestSpecValidateRejectsNonFinite: a NaN or infinite rate, bandwidth or
// latency is rejected up front. Each would otherwise reach the event
// engine as a delay (or a NaN one via a division), where a NaN panics.
func TestSpecValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		set  func(*Spec)
	}{
		{"MemoryBandwidth=+Inf", func(s *Spec) { s.MemoryBandwidth = inf }},
		{"PeakFLOPS=+Inf", func(s *Spec) { s.PeakFLOPS = inf }},
		{"PeakFLOPS=NaN", func(s *Spec) { s.PeakFLOPS = nan }},
		{"H2DBandwidth=NaN", func(s *Spec) { s.H2DBandwidth = nan }},
		{"D2HBandwidth=+Inf", func(s *Spec) { s.D2HBandwidth = inf }},
		{"CopyLatency=NaN", func(s *Spec) { s.CopyLatency = sim.Duration(nan) }},
		{"LaunchOverhead=+Inf", func(s *Spec) { s.LaunchOverhead = sim.Duration(inf) }},
		{"MinKernelTime=+Inf", func(s *Spec) { s.MinKernelTime = sim.Duration(inf) }},
		{"WarmupRate=NaN", func(s *Spec) { s.WarmupRate = nan }},
		{"WarmupSaturation=NaN", func(s *Spec) { s.WarmupSaturation = sim.Duration(nan) }},
		{"ContextSwitch=+Inf", func(s *Spec) { s.ContextSwitch = sim.Duration(inf) }},
	} {
		spec := A100()
		tc.set(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestNewDeviceRejectsBadSpec(t *testing.T) {
	if _, err := NewDevice(sim.NewEnv(), Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestAllocator(t *testing.T) {
	env := sim.NewEnv()
	d, err := NewDevice(env, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := d.Malloc(1 << 29)
	if err != nil {
		t.Fatal(err)
	}
	if d.mem.used != 1<<29 {
		t.Errorf("mem used = %d", d.mem.used)
	}
	if n, err := d.AllocSize(p1); err != nil || n != 1<<29 {
		t.Errorf("AllocSize = %d, %v", n, err)
	}
	if _, err := d.Malloc(1 << 30); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("overcommit error = %v, want ErrOutOfMemory", err)
	}
	p2, err := d.Malloc(1 << 29)
	if err != nil {
		t.Fatalf("exact-fit alloc failed: %v", err)
	}
	if err := d.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p1); !errors.Is(err, ErrBadPointer) {
		t.Errorf("double free error = %v, want ErrBadPointer", err)
	}
	if err := d.Free(p2); err != nil {
		t.Fatal(err)
	}
	if d.mem.used != 0 {
		t.Errorf("mem used after frees = %d", d.mem.used)
	}
	if _, err := d.Malloc(0); err == nil {
		t.Error("zero-byte Malloc accepted")
	}
	if _, err := d.AllocSize(Ptr(999)); !errors.Is(err, ErrBadPointer) {
		t.Errorf("AllocSize of bogus ptr = %v", err)
	}
}

func TestKernelBaseDurationComputeBound(t *testing.T) {
	spec := fastSpec()
	k := Kernel{Name: "k", FLOPs: 1e9, Efficiency: 0.5} // 1e9/(1e12*0.5) = 2ms
	if got := k.baseDuration(spec); math.Abs(float64(got-2*sim.Millisecond)) > 1e-12 {
		t.Errorf("duration = %v, want 2ms", got)
	}
}

func TestKernelBaseDurationMemoryBound(t *testing.T) {
	spec := fastSpec()
	k := Kernel{Name: "k", FLOPs: 1, Efficiency: 1, MemBytes: 1e9} // 1ms at 1TB/s
	if got := k.baseDuration(spec); math.Abs(float64(got-1*sim.Millisecond)) > 1e-12 {
		t.Errorf("duration = %v, want 1ms", got)
	}
}

func TestKernelMinTimeFloor(t *testing.T) {
	spec := fastSpec()
	spec.MinKernelTime = 3 * sim.Microsecond
	k := Kernel{Name: "tiny", FLOPs: 1, Efficiency: 1}
	if got := k.baseDuration(spec); got != 3*sim.Microsecond {
		t.Errorf("duration = %v, want floor 3µs", got)
	}
}

func TestKernelFixedTime(t *testing.T) {
	k := Kernel{Name: "replay", FixedTime: 7 * sim.Millisecond}
	if got := k.baseDuration(A100()); got != 7*sim.Millisecond {
		t.Errorf("duration = %v, want 7ms", got)
	}
	if k.String() == "" {
		t.Error("empty String")
	}
}

func TestKernelInvalidEfficiencyTreatedAsFull(t *testing.T) {
	spec := fastSpec()
	k := Kernel{Name: "k", FLOPs: 1e9, Efficiency: 0} // treated as 1.0
	if got := k.baseDuration(spec); math.Abs(float64(got-1*sim.Millisecond)) > 1e-12 {
		t.Errorf("duration = %v, want 1ms", got)
	}
}

// TestBadKernelInputs: a NaN efficiency counts as full efficiency, like
// any other out-of-range one, and a kernel whose duration is still not
// finite panics in EnqueueKernel, on the caller's stack and naming the
// kernel, before the engine sees the delay.
func TestBadKernelInputs(t *testing.T) {
	spec := fastSpec()
	k := Kernel{Name: "k", FLOPs: 1e9, Efficiency: math.NaN()}
	if got := k.baseDuration(spec); !(math.Abs(float64(got-1*sim.Millisecond)) <= 1e-12) {
		t.Errorf("NaN efficiency: duration = %v, want 1ms", got)
	}
	for _, k := range []Kernel{
		{Name: "nan_flops", FLOPs: math.NaN(), Efficiency: 1},
		{Name: "inf_bytes", FLOPs: 1, Efficiency: 1, MemBytes: math.Inf(1)},
	} {
		env := sim.NewEnv()
		d, _ := NewDevice(env, spec)
		s := d.NewStream()
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), k.Name) {
					t.Errorf("EnqueueKernel(%s): panic %v, want one naming the kernel", k.Name, r)
				}
			}()
			s.EnqueueKernel(k)
		}()
		env.Close()
	}
}

func TestMatMulScaling(t *testing.T) {
	// Durations must grow strictly with n and super-linearly (n^3 work).
	spec := A100()
	var prev sim.Duration
	for _, n := range []int{512, 2048, 8192, 32768} {
		d := MatMul(n).baseDuration(spec)
		if d <= prev {
			t.Fatalf("MatMul(%d) = %v not increasing (prev %v)", n, d, prev)
		}
		prev = d
	}
	// Regime check driving Table II's N clamps: the 512 multiply is
	// sub-millisecond (N pegs at the 1000 ceiling: 30s/kernel > 1000) and
	// the 32768 multiply takes seconds (N pegs at the 5 floor).
	if d := MatMul(512).baseDuration(spec); d > 1*sim.Millisecond {
		t.Errorf("MatMul(512) = %v, want < 1ms", d)
	}
	if d := MatMul(32768).baseDuration(spec); d < 2*sim.Second {
		t.Errorf("MatMul(32768) = %v, want multiple seconds", d)
	}
}

func TestMatrixBytes(t *testing.T) {
	// 2^15 squared floats = 4 GiB — the paper's "3 matrices don't fit with
	// 4 threads" arithmetic depends on this.
	if got := MatrixBytes(32768); got != 4*(1<<30) {
		t.Errorf("MatrixBytes(32768) = %d, want 4GiB", got)
	}
	if got := MatrixBytes(512); got != 1<<20 {
		t.Errorf("MatrixBytes(512) = %d, want 1MiB", got)
	}
}

func TestKernelConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"MatMul":  func() { MatMul(0) },
		"LJForce": func() { LJForce(0, 1) },
		"Conv3D":  func() { Conv3D(0, 1, 1, 1, 1) },
		"Dense":   func() { Dense(0, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with invalid args did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWorkloadKernelsHaveDistinctNames(t *testing.T) {
	names := map[string]bool{}
	for _, k := range []Kernel{
		MatMul(512), LJForce(1000, 30), NeighborBuild(1000, 30),
		Conv3D(1, 4, 16, 3, 64), Dense(1, 128, 64), Pool3D(1, 16, 32),
		Elementwise("relu", 100),
	} {
		if k.Name == "" {
			t.Errorf("kernel with empty name: %v", k)
		}
		names[k.Name] = true
	}
	if len(names) < 7 {
		t.Errorf("expected 7 distinct kernel names, got %d", len(names))
	}
}

func TestStreamExecutesInOrder(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec())
	var events []KernelEvent
	d.Listen(listenerFunc{onKernel: func(ev KernelEvent) { events = append(events, ev) }})
	s := d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s.EnqueueKernel(Kernel{Name: "k1", FixedTime: 1 * sim.Millisecond})
		s.EnqueueKernel(Kernel{Name: "k2", FixedTime: 2 * sim.Millisecond})
		s.Sync(p)
	})
	env.Run()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Name != "k1" || events[1].Name != "k2" {
		t.Errorf("order: %s, %s", events[0].Name, events[1].Name)
	}
	if events[1].Start != events[0].End {
		t.Errorf("k2 start %v != k1 end %v (in-order back-to-back)", events[1].Start, events[0].End)
	}
}

func TestCopyDuration(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	spec := fastSpec() // 1 GB/s copy bandwidth
	d, _ := NewDevice(env, spec)
	var evs []CopyEvent
	d.Listen(listenerFunc{onCopy: func(e CopyEvent) { evs = append(evs, e) }})
	s := d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s.EnqueueCopy(H2D, 1_000_000) // 1 MB at 1 GB/s = 1 ms
		s.Sync(p)
	})
	env.Run()
	if len(evs) != 1 || evs[0].Dir != H2D || evs[0].Bytes != 1_000_000 {
		t.Fatalf("copies = %+v", evs)
	}
	if got := evs[0].Duration(); math.Abs(float64(got-1*sim.Millisecond)) > 1e-12 {
		t.Errorf("copy duration = %v, want 1ms", got)
	}
}

func TestCopyDirectionsCounted(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec())
	var copies [3]int
	var bytes [3]int64
	d.Listen(listenerFunc{onCopy: func(e CopyEvent) {
		copies[e.Dir]++
		bytes[e.Dir] += e.Bytes
	}})
	s := d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s.EnqueueCopy(H2D, 100)
		s.EnqueueCopy(D2H, 200)
		s.EnqueueCopy(D2D, 300)
		s.Sync(p)
	})
	env.Run()
	if copies != [3]int{1, 1, 1} {
		t.Errorf("copy counts (H2D, D2H, D2D) = %v", copies)
	}
	if bytes != [3]int64{100, 200, 300} {
		t.Errorf("copy bytes (H2D, D2H, D2D) = %v", bytes)
	}
}

func TestKernelsFromTwoStreamsSerializeOnCompute(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec())
	s1, s2 := d.NewStream(), d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s1.EnqueueKernel(Kernel{Name: "a", FixedTime: 1 * sim.Millisecond})
		s2.EnqueueKernel(Kernel{Name: "b", FixedTime: 1 * sim.Millisecond})
		d.Sync(p)
	})
	end := env.Run()
	if math.Abs(float64(end)-2e-3) > 1e-12 {
		t.Errorf("two 1ms kernels finished at %v, want 2ms (serialized)", end)
	}
}

func TestCopiesOverlapOnSeparateEngines(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec()) // 2 DMA engines
	s1, s2 := d.NewStream(), d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s1.EnqueueCopy(H2D, 1_000_000)
		s2.EnqueueCopy(D2H, 1_000_000)
		d.Sync(p)
	})
	end := env.Run()
	if math.Abs(float64(end)-1e-3) > 1e-12 {
		t.Errorf("overlapped copies finished at %v, want 1ms", end)
	}
}

func TestCopyOverlapsKernel(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec())
	s1, s2 := d.NewStream(), d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s1.EnqueueKernel(Kernel{Name: "k", FixedTime: 1 * sim.Millisecond})
		s2.EnqueueCopy(H2D, 1_000_000)
		d.Sync(p)
	})
	end := env.Run()
	if math.Abs(float64(end)-1e-3) > 1e-12 {
		t.Errorf("kernel+copy finished at %v, want 1ms (overlap)", end)
	}
}

func TestWarmupChargedAfterIdleGap(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	spec := fastSpec()
	spec.WarmupRate = 0.5
	spec.WarmupSaturation = 1 * sim.Second
	d, _ := NewDevice(env, spec)
	var events []KernelEvent
	d.Listen(listenerFunc{onKernel: func(ev KernelEvent) { events = append(events, ev) }})
	s := d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s.EnqueueKernel(Kernel{Name: "k1", FixedTime: 1 * sim.Millisecond})
		s.Sync(p)
		p.Sleep(10 * sim.Millisecond) // starve the device
		s.EnqueueKernel(Kernel{Name: "k2", FixedTime: 1 * sim.Millisecond})
		s.Sync(p)
	})
	env.Run()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Warmup != 0 {
		t.Errorf("first kernel warmup = %v, want 0 (cold device starts clean)", events[0].Warmup)
	}
	want := 5 * sim.Millisecond // 0.5 × 10ms gap
	if math.Abs(float64(events[1].Warmup-want)) > 1e-12 {
		t.Errorf("warmup = %v, want %v", events[1].Warmup, want)
	}
	if math.Abs(float64(events[1].IdleGap-10*sim.Millisecond)) > 1e-12 {
		t.Errorf("idle gap = %v, want 10ms", events[1].IdleGap)
	}
	if got := events[1].Duration(); math.Abs(float64(got-6*sim.Millisecond)) > 1e-12 {
		t.Errorf("stretched duration = %v, want 6ms", got)
	}
	var idle int
	var warmup sim.Duration
	for _, ev := range events {
		if ev.IdleGap > 0 {
			idle++
		}
		warmup += ev.Warmup
	}
	if idle != 1 || math.Abs(float64(warmup-want)) > 1e-12 {
		t.Errorf("%d kernels started idle, %v warm-up in all, want 1 and %v", idle, warmup, want)
	}
}

func TestWarmupSaturates(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	spec := fastSpec()
	spec.WarmupRate = 0.5
	spec.WarmupSaturation = 5 * sim.Millisecond
	d, _ := NewDevice(env, spec)
	var last KernelEvent
	d.Listen(listenerFunc{onKernel: func(ev KernelEvent) { last = ev }})
	s := d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s.EnqueueKernel(Kernel{Name: "k1", FixedTime: 1 * sim.Millisecond})
		s.Sync(p)
		p.Sleep(1 * sim.Second) // far beyond saturation
		s.EnqueueKernel(Kernel{Name: "k2", FixedTime: 1 * sim.Millisecond})
		s.Sync(p)
	})
	env.Run()
	want := sim.Duration(0.5) * 5 * sim.Millisecond
	if math.Abs(float64(last.Warmup-want)) > 1e-12 {
		t.Errorf("saturated warmup = %v, want %v", last.Warmup, want)
	}
}

func TestBackToBackKernelsPayNoWarmup(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	spec := fastSpec()
	spec.WarmupRate = 0.5
	spec.WarmupSaturation = 1 * sim.Second
	d, _ := NewDevice(env, spec)
	var total sim.Duration
	d.Listen(listenerFunc{onKernel: func(ev KernelEvent) { total += ev.Warmup }})
	s := d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			s.EnqueueKernel(Kernel{Name: "k", FixedTime: 1 * sim.Millisecond})
		}
		s.Sync(p)
	})
	env.Run()
	if total != 0 {
		t.Errorf("queued kernels paid %v of warmup, want 0", total)
	}
}

func TestSecondStreamFillsIdleGap(t *testing.T) {
	// A second submitter's kernels keep the device warm: the paper's
	// "number of kernels given to the GPU in parallel is proportional to
	// slack tolerance" mechanism.
	run := func(parallel bool) sim.Duration {
		env := sim.NewEnv()
		defer env.Close()
		spec := fastSpec()
		spec.WarmupRate = 0.5
		spec.WarmupSaturation = 1 * sim.Second
		d, _ := NewDevice(env, spec)
		var total sim.Duration
		d.Listen(listenerFunc{onKernel: func(ev KernelEvent) { total += ev.Warmup }})
		s1 := d.NewStream()
		env.Spawn("host1", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				op := s1.EnqueueKernel(Kernel{Name: "k", FixedTime: 1 * sim.Millisecond})
				op.Wait(p)
				p.Sleep(4 * sim.Millisecond) // slack-like host delay
			}
		})
		if parallel {
			s2 := d.NewStream()
			env.SpawnAt(2*sim.Millisecond, "host2", func(p *sim.Proc) {
				for i := 0; i < 5; i++ {
					op := s2.EnqueueKernel(Kernel{Name: "k", FixedTime: 1 * sim.Millisecond})
					op.Wait(p)
					p.Sleep(4 * sim.Millisecond)
				}
			})
		}
		env.Run()
		return total
	}
	solo := run(false)
	dual := run(true)
	if solo <= 0 {
		t.Fatalf("solo warmup = %v, want positive", solo)
	}
	if dual >= solo {
		t.Errorf("parallel submitters warmup %v >= solo %v; gaps should shrink", dual, solo)
	}
}

func TestOpWaitAndDone(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec())
	s := d.NewStream()
	var doneAt sim.Time
	env.Spawn("host", func(p *sim.Proc) {
		op := s.EnqueueKernel(Kernel{Name: "k", FixedTime: 2 * sim.Millisecond})
		if op.Done() {
			t.Error("op done immediately after enqueue")
		}
		op.Wait(p)
		if !op.Done() {
			t.Error("op not done after Wait")
		}
		doneAt = p.Now()
		op.Wait(p) // waiting on a done op must not block
	})
	env.Run()
	if math.Abs(float64(doneAt)-2e-3) > 1e-12 {
		t.Errorf("op completed at %v, want 2ms", doneAt)
	}
}

func TestDeviceSyncWaitsAllStreams(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec())
	s1, s2 := d.NewStream(), d.NewStream()
	var syncAt sim.Time
	env.Spawn("host", func(p *sim.Proc) {
		s1.EnqueueKernel(Kernel{Name: "a", FixedTime: 1 * sim.Millisecond})
		s2.EnqueueCopy(H2D, 3_000_000) // 3ms
		d.Sync(p)
		syncAt = p.Now()
	})
	env.Run()
	if math.Abs(float64(syncAt)-3e-3) > 1e-12 {
		t.Errorf("device sync at %v, want 3ms", syncAt)
	}
}

func TestStreamDestroy(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec())
	s := d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s.EnqueueKernel(Kernel{Name: "k", FixedTime: 1 * sim.Millisecond})
		s.Sync(p)
		s.Destroy()
	})
	env.Run()
	if got := env.Blocked(); len(got) != 0 {
		t.Errorf("destroyed stream left blocked procs: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("enqueue on destroyed stream did not panic")
		}
	}()
	s.EnqueueKernel(Kernel{Name: "k", FixedTime: 1 * sim.Millisecond})
}

func TestUtilization(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec())
	var busy sim.Duration
	d.Listen(listenerFunc{onKernel: func(ev KernelEvent) { busy += ev.Duration() }})
	s := d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s.EnqueueKernel(Kernel{Name: "k", FixedTime: 1 * sim.Millisecond})
		s.Sync(p)
		p.Sleep(1 * sim.Millisecond)
	})
	end := env.Run()
	if u := float64(busy) / float64(end); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestDirectionString(t *testing.T) {
	if H2D.String() != "HtoD" || D2H.String() != "DtoH" || D2D.String() != "DtoD" {
		t.Error("direction names wrong")
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction empty")
	}
}

// Property: total compute-busy time equals the sum of kernel durations
// regardless of stream layout.
func TestPropertyComputeBusyConservation(t *testing.T) {
	f := func(durs []uint8, streams uint8) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 30 {
			durs = durs[:30]
		}
		ns := int(streams%4) + 1
		env := sim.NewEnv()
		defer env.Close()
		d, _ := NewDevice(env, fastSpec())
		var want, got sim.Duration
		d.Listen(listenerFunc{onKernel: func(ev KernelEvent) { got += ev.Duration() }})
		ss := make([]*Stream, ns)
		for i := range ss {
			ss[i] = d.NewStream()
		}
		env.Spawn("host", func(p *sim.Proc) {
			for i, u := range durs {
				dur := sim.Duration(int(u)+1) * sim.Microsecond
				want += dur
				ss[i%ns].EnqueueKernel(Kernel{Name: "k", FixedTime: dur})
			}
			d.Sync(p)
		})
		env.Run()
		return math.Abs(float64(got-want)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// tally counts completed kernels, and copies by direction.
type tally struct {
	kernels int
	copies  [3]int
}

func (c *tally) OnKernel(KernelEvent) { c.kernels++ }
func (c *tally) OnCopy(ev CopyEvent)  { c.copies[ev.Dir]++ }

// listenerFunc adapts closures to the Listener interface.
type listenerFunc struct {
	onKernel func(KernelEvent)
	onCopy   func(CopyEvent)
}

func (l listenerFunc) OnKernel(ev KernelEvent) {
	if l.onKernel != nil {
		l.onKernel(ev)
	}
}
func (l listenerFunc) OnCopy(ev CopyEvent) {
	if l.onCopy != nil {
		l.onCopy(ev)
	}
}

func TestContextSwitchChargedBetweenStreams(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	spec := fastSpec()
	spec.ContextSwitch = 500 * sim.Microsecond
	d, _ := NewDevice(env, spec)
	var events []KernelEvent
	d.Listen(listenerFunc{onKernel: func(ev KernelEvent) { events = append(events, ev) }})
	s1, s2 := d.NewStream(), d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s1.EnqueueKernel(Kernel{Name: "a", FixedTime: 1 * sim.Millisecond})
		s1.EnqueueKernel(Kernel{Name: "a2", FixedTime: 1 * sim.Millisecond})
		s2.EnqueueKernel(Kernel{Name: "b", FixedTime: 1 * sim.Millisecond})
		d.Sync(p)
	})
	env.Run()
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	// Same-stream back-to-back: no switch. Cross-stream: one switch, the
	// gap between the two kernels.
	var switches int
	var total sim.Duration
	for i, ev := range events {
		// Reported duration stays the pure kernel time.
		if math.Abs(float64(ev.Duration()-1*sim.Millisecond)) > 1e-12 {
			t.Errorf("kernel %s duration %v includes switch cost", ev.Name, ev.Duration())
		}
		if i == 0 {
			continue
		}
		gap := ev.Start.Sub(events[i-1].End)
		if ev.Stream != events[i-1].Stream {
			switches++
			total += gap
		} else if gap != 0 {
			t.Errorf("kernel %s started %v after its stream's last kernel", ev.Name, gap)
		}
	}
	if switches != 1 || math.Abs(float64(total-500*sim.Microsecond)) > 1e-12 {
		t.Errorf("switches=%d total=%v, want 1 and 500µs", switches, total)
	}
}

func TestNoContextSwitchWhenDisabled(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec()) // ContextSwitch zero
	var events []KernelEvent
	d.Listen(listenerFunc{onKernel: func(ev KernelEvent) { events = append(events, ev) }})
	s1, s2 := d.NewStream(), d.NewStream()
	env.Spawn("host", func(p *sim.Proc) {
		s1.EnqueueKernel(Kernel{Name: "a", FixedTime: 1 * sim.Millisecond})
		s2.EnqueueKernel(Kernel{Name: "b", FixedTime: 1 * sim.Millisecond})
		d.Sync(p)
	})
	end := env.Run()
	if math.Abs(float64(end)-2e-3) > 1e-12 {
		t.Errorf("end = %v, want 2ms without switch cost", end)
	}
	if len(events) != 2 || events[1].Start != events[0].End {
		t.Errorf("kernels %+v, want the second to start as the first ends", events)
	}
}

// TestStreamsSpawnNoProcess pins the callback design: one host driving
// kernels and copies on two streams is the only process the engine ever
// spawns, the device work costs no process switch (its callbacks run
// inline on the parked host's coroutine), and once the stream is
// warm an enqueue and wait allocates nothing even though no op is
// released; the op chunk every 64 ops rounds to zero per round.
func TestStreamsSpawnNoProcess(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	spec := fastSpec()
	spec.ContextSwitch = 10 * sim.Microsecond
	d, _ := NewDevice(env, spec)
	s1, s2 := d.NewStream(), d.NewStream()
	k := Kernel{Name: "k", FixedTime: 10 * sim.Microsecond}
	var c tally
	d.Listen(&c)
	var switches uint64
	var allocs float64
	env.Spawn("host", func(p *sim.Proc) {
		before := env.Stats().Switches
		for range 20 {
			s1.EnqueueCopy(H2D, 4096)
			s1.EnqueueKernel(k)
			s2.EnqueueKernel(k)
			s2.EnqueueCopy(D2H, 4096).Wait(p)
		}
		d.Sync(p)
		switches = env.Stats().Switches - before
		allocs = testing.AllocsPerRun(200, func() { s1.EnqueueKernel(k).Wait(p) })
	})
	env.Run()
	if st := env.Stats(); st.Spawns != 1 {
		t.Errorf("%d processes spawned, want 1 (the host)", st.Spawns)
	}
	if switches != 0 {
		t.Errorf("device work cost %d process switches, want 0", switches)
	}
	if allocs != 0 {
		t.Errorf("enqueue and wait allocates %v times per round, want 0", allocs)
	}
	// AllocsPerRun calls its function once more to warm up.
	if c.kernels != 40+201 || c.copies != [3]int{20, 20, 0} {
		t.Errorf("completions = %+v", c)
	}
}

// TestReleasedOpIsReused pins op recycling: an enqueue, wait and release
// round allocates nothing at all, and the next enqueue gets the released
// op back, whether it was released done or while still queued.
func TestReleasedOpIsReused(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d, _ := NewDevice(env, fastSpec())
	s := d.NewStream()
	k := Kernel{Name: "k", FixedTime: 10 * sim.Microsecond}
	var c tally
	d.Listen(&c)
	var allocs float64
	env.Spawn("host", func(p *sim.Proc) {
		// One measured run of 200 rounds after a warm-up run of 200: the
		// count is the rounds' total, so even one chunk shows.
		allocs = testing.AllocsPerRun(1, func() {
			for range 200 {
				o := s.EnqueueKernel(k)
				o.Wait(p)
				d.Release(o)
			}
		})
		o := s.EnqueueCopy(H2D, 4096)
		o.Wait(p)
		d.Release(o)
		if o2 := s.EnqueueKernel(k); o2 != o {
			t.Error("enqueue after releasing a done op did not reuse it")
		}
		d.Release(s.EnqueueKernel(k)) // queued behind o2: recycled on completion
		queued := s.EnqueueMarker()
		d.Release(queued)
		s.Sync(p)
		if o3 := s.EnqueueMarker(); o3 != queued {
			t.Error("enqueue after a queued release completed did not reuse the op")
		}
		s.Sync(p)
	})
	env.Run()
	if allocs != 0 {
		t.Errorf("200 rounds of enqueue, wait and release allocate %v times, want 0", allocs)
	}
	if c.kernels != 400+2 || c.copies != [3]int{1, 0, 0} {
		t.Errorf("completions = %+v", c)
	}
}

// TestReleasePanics: releasing an op a process waits on, or releasing
// one twice, is a caller bug the device reports.
func TestReleasePanics(t *testing.T) {
	k := Kernel{Name: "k", FixedTime: 10 * sim.Microsecond}
	for _, tc := range []struct {
		name string
		// wait parks a process on o before misuse runs.
		wait   bool
		misuse func(p *sim.Proc, d *Device, o *Op)
	}{
		{"parked waiter", true, func(p *sim.Proc, d *Device, o *Op) { d.Release(o) }},
		{"twice while queued", false, func(p *sim.Proc, d *Device, o *Op) {
			d.Release(o)
			d.Release(o)
		}},
		{"twice after done", false, func(p *sim.Proc, d *Device, o *Op) {
			o.Wait(p)
			d.Release(o)
			d.Release(o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			d, _ := NewDevice(env, fastSpec())
			o := d.NewStream().EnqueueKernel(k)
			if tc.wait {
				env.Spawn("waiter", o.Wait)
			}
			var panicked bool
			env.Spawn("misuser", func(p *sim.Proc) {
				defer func() { panicked = recover() != nil }()
				tc.misuse(p, d, o)
			})
			env.Run()
			if !panicked {
				t.Error("misuse did not panic")
			}
		})
	}
}

// Device comes in a 320-byte size class; NewDevice runs once per
// simulated GPU, so the op free list must not push it into the next one.
func TestDeviceFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Device{}); n > 320 {
		t.Fatalf("Device is %d bytes, want at most 320", n)
	}
}

// Property: the allocator conserves memory across arbitrary malloc/free
// sequences and never overcommits.
func TestPropertyAllocatorConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv()
		d, err := NewDevice(env, fastSpec()) // 1 GiB
		if err != nil {
			return false
		}
		type alloc struct {
			ptr  Ptr
			size int64
		}
		var live []alloc
		var used int64
		for i := 0; i < 100; i++ {
			if rng.Intn(2) == 0 {
				size := int64(rng.Intn(1<<28) + 1)
				ptr, err := d.Malloc(size)
				if err == nil {
					live = append(live, alloc{ptr, size})
					used += size
				} else if used+size <= d.spec.MemoryBytes {
					return false // spurious OOM
				}
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				if err := d.Free(live[i].ptr); err != nil {
					return false
				}
				used -= live[i].size
				live = append(live[:i], live[i+1:]...)
			}
			if d.mem.used != used || used > d.spec.MemoryBytes {
				return false
			}
		}
		for _, a := range live {
			if err := d.Free(a.ptr); err != nil {
				return false
			}
		}
		return d.mem.used == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
