package proxy_test

import (
	"slices"
	"testing"

	"repro/internal/cuda"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/proxy"
	"repro/internal/remoting"
	"repro/internal/sim"
)

// callNames records the name of every call an interposer sees.
type callNames []string

func (c *callNames) Before(_ *sim.Proc, info cuda.CallInfo) { *c = append(*c, info.Name) }
func (c *callNames) After(*sim.Proc, cuda.CallInfo)         {}

// TestIterateOnBothTransports pins the one main-loop iteration every
// caller shares. On a node-local context it issues the five calls of the
// loop in order; on the remoting transport it forwards exactly
// CallsPerIteration logical calls.
func TestIterateOnBothTransports(t *testing.T) {
	const iters = 3
	matBytes := gpu.MatrixBytes(64)
	kernel := gpu.MatMul(64)

	t.Run("local", func(t *testing.T) {
		env := sim.NewEnv()
		defer env.Close()
		dev, err := gpu.NewDevice(env, gpu.A100())
		if err != nil {
			t.Fatal(err)
		}
		ctx := cuda.NewContext(dev, cuda.Config{})
		var names callNames
		ctx.Interpose(&names)
		env.Spawn("host", func(p *sim.Proc) {
			m, err := proxy.Alloc(p, proxy.Local{Context: ctx}, matBytes)
			if err != nil {
				t.Error(err)
				return
			}
			names = names[:0]
			if err := m.Iterate(p, proxy.Local{Context: ctx}, kernel); err != nil {
				t.Error(err)
			}
		})
		env.Run()
		want := []string{"cudaMemcpy(HtoD)", "cudaMemcpy(HtoD)", "cudaLaunchKernelSync:" + kernel.Name,
			"cudaDeviceSynchronize", "cudaMemcpy(DtoH)"}
		if !slices.Equal(names, want) {
			t.Errorf("one iteration called %q, want %q", names, want)
		}
		if len(want) != proxy.CallsPerIteration {
			t.Errorf("want lists %d calls, CallsPerIteration is %d", len(want), proxy.CallsPerIteration)
		}
	})

	t.Run("remoted", func(t *testing.T) {
		path, err := fabric.PathForSlack(10 * sim.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		env := sim.NewEnv()
		defer env.Close()
		r, err := remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{Config: remoting.Config{Path: path}})
		if err != nil {
			t.Fatal(err)
		}
		var calls []int64
		env.Spawn("host", func(p *sim.Proc) {
			m, err := proxy.Alloc(p, r, matBytes)
			if err != nil {
				t.Error(err)
				return
			}
			calls = append(calls, r.Stats().Calls)
			for i := 0; i < iters; i++ {
				if err := m.Iterate(p, r, kernel); err != nil {
					t.Error(err)
					return
				}
				calls = append(calls, r.Stats().Calls)
			}
		})
		env.Run()
		if len(calls) != iters+1 {
			t.Fatalf("ran %d of %d iterations", len(calls)-1, iters)
		}
		for i := 1; i < len(calls); i++ {
			if d := calls[i] - calls[i-1]; d != proxy.CallsPerIteration {
				t.Errorf("iteration %d forwarded %d calls, want %d", i, d, proxy.CallsPerIteration)
			}
		}
		if st := r.Stats(); st.Retries != 0 || st.Timeouts != 0 || st.Failovers != 0 {
			t.Errorf("fault-free transport took policy actions: %+v", st)
		}
	})
}
