package compose

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func TestTraditionalNodeGranularity(t *testing.T) {
	s, err := NewTraditional(4, 12, 1) // the paper's 12 cores/GPU Narval ratio
	if err != nil {
		t.Fatal(err)
	}
	// 48-core CPU-heavy job with 1 GPU: needs all 4 nodes, trapping 3 GPUs.
	a, err := s.Alloc(Request{Name: "lammps", Cores: 48, GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.NodesUsed != 4 || a.GPUsGranted != 4 || a.TrappedGPUs != 3 {
		t.Errorf("allocation = %+v", a)
	}
	if a.Slack != 0 {
		t.Errorf("traditional slack = %v, want 0", a.Slack)
	}
	if _, gpus := s.Trapped(); gpus != 3 {
		t.Errorf("trapped gpus = %d", gpus)
	}
	if s.freeNodes*s.coresPerNode != 0 || s.FreeGPUs() != 0 {
		t.Errorf("free = %d cores, %d gpus", s.freeNodes*s.coresPerNode, s.FreeGPUs())
	}
}

func TestCDIMatchesExactRatio(t *testing.T) {
	s, err := NewCDI(4, 12, 1, 4, fabric.Preset(fabric.RowScale, 0))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Alloc(Request{Name: "lammps", Cores: 48, GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.NodesUsed != 4 || a.GPUsGranted != 1 || a.TrappedGPUs != 0 {
		t.Errorf("allocation = %+v", a)
	}
	if a.Slack <= 0 {
		t.Error("CDI composition has no slack")
	}
	if s.FreeGPUs() != 3 {
		t.Errorf("free GPUs = %d, want 3 (not trapped)", s.FreeGPUs())
	}
}

func TestCDICPUOnlyJobHasNoSlack(t *testing.T) {
	s, _ := NewCDI(2, 24, 1, 4, fabric.Preset(fabric.RowScale, 0))
	a, err := s.Alloc(Request{Name: "cpu-only", Cores: 24})
	if err != nil {
		t.Fatal(err)
	}
	if a.Slack != 0 {
		t.Errorf("CPU-only job slack = %v", a.Slack)
	}
}

func TestAllocValidationAndExhaustion(t *testing.T) {
	s, _ := NewTraditional(2, 8, 1)
	if _, err := s.Alloc(Request{Name: "bad"}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := s.Alloc(Request{Name: "bad", Cores: -1}); err == nil {
		t.Error("negative request accepted")
	}
	if _, err := s.Alloc(Request{Name: "a", Cores: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(Request{Name: "a", Cores: 1}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := s.Alloc(Request{Name: "b", Cores: 1}); !errors.Is(err, ErrInsufficient) {
		t.Errorf("exhaustion error = %v", err)
	}
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("a"); err == nil {
		t.Error("double release accepted")
	}
	if _, err := s.Alloc(Request{Name: "b", Cores: 1}); err != nil {
		t.Errorf("allocation after release failed: %v", err)
	}
	nan := fabric.Path{Hops: []fabric.Hop{{Name: "bad", Latency: sim.Duration(math.NaN())}}}
	if _, err := NewCDI(4, 8, 1, 2, nan); err == nil {
		t.Error("NaN-latency path accepted")
	}
}

func TestCDIGPUExhaustion(t *testing.T) {
	s, _ := NewCDI(4, 8, 1, 2, fabric.Path{})
	if _, err := s.Alloc(Request{Name: "a", Cores: 1, GPUs: 3}); !errors.Is(err, ErrInsufficient) {
		t.Errorf("GPU overcommit error = %v", err)
	}
}

func TestTraditionalWithoutGPUsRejectsGPURequest(t *testing.T) {
	s, _ := NewTraditional(2, 8, 0)
	if _, err := s.Alloc(Request{Name: "a", Cores: 1, GPUs: 1}); !errors.Is(err, ErrInsufficient) {
		t.Errorf("error = %v", err)
	}
}

func TestGPUUtilizationAndPower(t *testing.T) {
	trad, _ := NewTraditional(4, 12, 2) // 8 GPUs
	trad.Alloc(Request{Name: "j", Cores: 48, GPUs: 2})
	wantW := 2.0*gpuBusyWatts + 6*gpuIdleWatts
	if got := trad.GPUPowerDraw(); got != wantW {
		t.Errorf("traditional power = %v, want %v", got, wantW)
	}

	cdi, _ := NewCDI(4, 12, 1, 8, fabric.Path{})
	cdi.Alloc(Request{Name: "j", Cores: 48, GPUs: 2})
	if got := cdi.GPUPowerDraw(); got != 2*gpuBusyWatts {
		t.Errorf("CDI power = %v, want %v", got, 2*gpuBusyWatts)
	}
}

func TestArchitectureString(t *testing.T) {
	if Traditional.String() != "traditional" || CDI.String() != "cdi" {
		t.Error("architecture names wrong")
	}
	if Architecture(9).String() == "" {
		t.Error("unknown architecture name empty")
	}
}

func TestPaperScenario(t *testing.T) {
	cmp, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	// Traditional: CosmoFlow's 20 GPUs need 10 of the 20 2-GPU nodes,
	// wasting 236 of their cores; LAMMPS then has only 10 nodes = 240
	// cores for its 20 GPUs (12 cores/GPU).
	cf := cmp.Traditional[0]
	lm := cmp.Traditional[1]
	if !cf.Granted || cf.Allocation.NodesUsed != 10 {
		t.Fatalf("traditional cosmoflow: %+v", cf)
	}
	if !lm.Granted || lm.Allocation.NodesUsed != 10 {
		t.Fatalf("traditional lammps: %+v", lm)
	}
	if lm.CoreToGPU != 12 {
		t.Errorf("traditional lammps cores/gpu = %v, want 12", lm.CoreToGPU)
	}

	// CDI: CosmoFlow takes 1 node (4 cores of it) + 20 chassis GPUs,
	// leaving LAMMPS 16 nodes for its 20 GPUs — 19.2 cores/GPU, the
	// paper's much healthier ratio.
	cfC := cmp.CDI[0]
	lmC := cmp.CDI[1]
	if !cfC.Granted || cfC.Allocation.NodesUsed != 1 {
		t.Fatalf("cdi cosmoflow: %+v", cfC)
	}
	if !lmC.Granted || lmC.Allocation.NodesUsed != 16 {
		t.Fatalf("cdi lammps: %+v", lmC)
	}
	if lmC.CoreToGPU <= lm.CoreToGPU {
		t.Errorf("CDI did not improve LAMMPS cores/gpu: %v vs %v", lmC.CoreToGPU, lm.CoreToGPU)
	}
	if cmp.CDITrappedGPUs != 0 {
		t.Errorf("CDI trapped GPUs = %d", cmp.CDITrappedGPUs)
	}
	// Every GPU is busy in this fully subscribed scenario, so power is
	// equal; CDI must never draw more.
	if cmp.CDIPowerW > cmp.TraditionalPowerW {
		t.Errorf("CDI power %v above traditional %v", cmp.CDIPowerW, cmp.TraditionalPowerW)
	}
	if cmp.Render() == "" {
		t.Error("empty Render")
	}
}

func TestCompareArchitecturesOversubscription(t *testing.T) {
	// Three jobs that fit under CDI but not traditionally: GPU demand
	// equals supply, but node-granularity wastes GPUs.
	jobs := []Request{
		{Name: "a", Cores: 36, GPUs: 1},
		{Name: "b", Cores: 36, GPUs: 1},
		{Name: "c", Cores: 4, GPUs: 6},
	}
	cmp, err := CompareArchitectures(jobs, 8, 12, 1, 8, fabric.RowScale)
	if err != nil {
		t.Fatal(err)
	}
	tradGranted, cdiGranted := 0, 0
	for i := range jobs {
		if cmp.Traditional[i].Granted {
			tradGranted++
		}
		if cmp.CDI[i].Granted {
			cdiGranted++
		}
	}
	if cdiGranted <= tradGranted {
		t.Errorf("CDI granted %d jobs vs traditional %d; composability should win", cdiGranted, tradGranted)
	}
}

// Property: any sequence of allocations and releases conserves resources —
// free counts never go negative or exceed totals, and releasing everything
// restores the empty machine.
func TestPropertyAllocReleaseConservation(t *testing.T) {
	f := func(seed int64, cdi bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var s *System
		var err error
		if cdi {
			s, err = NewCDI(6, 12, 2, 8, fabric.Preset(fabric.RowScale, 0))
		} else {
			s, err = NewTraditional(6, 12, 2)
		}
		if err != nil {
			return false
		}
		totalCores, totalGPUs := s.TotalCores(), s.TotalGPUs()
		live := map[string]bool{}
		for i := 0; i < 60; i++ {
			if rng.Intn(2) == 0 {
				name := fmt.Sprintf("j%d", i)
				req := Request{
					Name:  name,
					Cores: rng.Intn(totalCores + 10),
					GPUs:  rng.Intn(totalGPUs + 4),
				}
				if req.Cores == 0 && req.GPUs == 0 {
					req.Cores = 1
				}
				if _, err := s.Alloc(req); err == nil {
					live[name] = true
				}
			} else {
				for name := range live {
					if err := s.Release(name); err != nil {
						return false
					}
					delete(live, name)
					break
				}
			}
			if s.freeNodes*s.coresPerNode < 0 || s.freeNodes*s.coresPerNode > totalCores {
				return false
			}
			if s.FreeGPUs() < 0 || s.FreeGPUs() > totalGPUs {
				return false
			}
		}
		for name := range live {
			if err := s.Release(name); err != nil {
				return false
			}
		}
		return s.freeNodes*s.coresPerNode == totalCores && s.FreeGPUs() == totalGPUs && len(s.allocs) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
