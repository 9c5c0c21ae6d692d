// Package trace is the study's stand-in for NVIDIA NSight Systems: it
// records every kernel execution, memory transfer, and CUDA API call an
// application performs, and provides the analyses the paper extracts from
// NSys traces — kernel-duration distributions (Figure 4), memcpy-size
// distributions (Figure 5), runtime fractions (Equation 2), and the
// transfer-size binning of Table III.
package trace

import (
	"sort"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// APICall records one CUDA API invocation observed by the recorder.
type APICall struct {
	Name  string
	Class cuda.CallClass
	Bytes int64
	Begin sim.Time
	End   sim.Time
}

// AppSpan is one logical interval on an application-defined track —
// subsystems above the CUDA layer (request lifetimes, batches, injected
// slack) annotate the recording with these. They render on their own
// process row in the Chrome export, alongside the host-API and device
// rows. (Span, by contrast, is a device busy interval.)
type AppSpan struct {
	Name  string
	Cat   string
	Track int
	Start sim.Time
	End   sim.Time
}

// Trace is a completed recording.
type Trace struct {
	// Label names the traced workload ("lammps", "cosmoflow", "proxy-2^13").
	Label   string
	Started sim.Time
	Ended   sim.Time
	Kernels []gpu.KernelEvent
	Copies  []gpu.CopyEvent
	Calls   []APICall
	// AppSpans holds application-level intervals recorded outside the
	// CUDA interposer seam (may be empty).
	AppSpans []AppSpan
}

// Recorder captures device and API events. Register it on each device with
// Device.Listen and on each context with Context.Interpose, bracket the
// region of interest with Start/Stop, then call Trace for the result.
type Recorder struct {
	label     string
	recording bool
	started   sim.Time
	ended     sim.Time
	kernels   []gpu.KernelEvent
	copies    []gpu.CopyEvent
	calls     []APICall
	// begins stacks Before timestamps per host process: processes park
	// inside call bodies, so calls from different threads interleave.
	begins map[*sim.Proc][]sim.Time
}

// NewRecorder returns an idle recorder for the labelled workload.
func NewRecorder(label string) *Recorder {
	return &Recorder{label: label, begins: make(map[*sim.Proc][]sim.Time)}
}

// Start begins recording at the current time of env.
func (r *Recorder) Start(env *sim.Env) {
	r.recording = true
	r.started = env.Now()
}

// Stop ends recording at the current time of env.
func (r *Recorder) Stop(env *sim.Env) {
	r.recording = false
	r.ended = env.Now()
}

// Recording reports whether events are currently captured.
func (r *Recorder) Recording() bool { return r.recording }

// OnKernel implements gpu.Listener.
func (r *Recorder) OnKernel(ev gpu.KernelEvent) {
	if r.recording {
		r.kernels = append(r.kernels, ev)
	}
}

// OnCopy implements gpu.Listener.
func (r *Recorder) OnCopy(ev gpu.CopyEvent) {
	if r.recording {
		r.copies = append(r.copies, ev)
	}
}

// Before implements cuda.Interposer.
func (r *Recorder) Before(p *sim.Proc, info cuda.CallInfo) {
	if r.recording {
		r.begins[p] = append(r.begins[p], p.Now())
	}
}

// After implements cuda.Interposer.
func (r *Recorder) After(p *sim.Proc, info cuda.CallInfo) {
	stack := r.begins[p]
	if !r.recording || len(stack) == 0 {
		return
	}
	begin := stack[len(stack)-1]
	r.begins[p] = stack[:len(stack)-1]
	r.calls = append(r.calls, APICall{
		Name:  info.Name,
		Class: info.Class,
		Bytes: info.Bytes,
		Begin: begin,
		End:   p.Now(),
	})
}

// Trace returns the completed recording.
func (r *Recorder) Trace() *Trace {
	return &Trace{
		Label:   r.label,
		Started: r.started,
		Ended:   r.ended,
		Kernels: r.kernels,
		Copies:  r.copies,
		Calls:   r.calls,
	}
}

var (
	_ gpu.Listener    = (*Recorder)(nil)
	_ cuda.Interposer = (*Recorder)(nil)
)

// Runtime returns the wall-clock (virtual) span of the recording.
func (t *Trace) Runtime() sim.Duration { return t.Ended.Sub(t.Started) }

// KernelDurations returns every kernel's execution time in seconds.
func (t *Trace) KernelDurations() []float64 {
	out := make([]float64, len(t.Kernels))
	for i, k := range t.Kernels {
		out[i] = float64(k.Duration())
	}
	return out
}

// MemcpySizes returns transfer sizes in bytes for the given directions
// (no directions selects all).
func (t *Trace) MemcpySizes(dirs ...gpu.Direction) []float64 {
	want := map[gpu.Direction]bool{}
	for _, d := range dirs {
		want[d] = true
	}
	var out []float64
	for _, c := range t.Copies {
		if len(want) == 0 || want[c.Dir] {
			out = append(out, float64(c.Bytes))
		}
	}
	return out
}

// KernelGroup summarizes one kernel name's executions.
type KernelGroup struct {
	Name      string
	Count     int
	Total     sim.Duration
	Durations []float64 // seconds
}

// TopKernels returns the k kernel groups with the largest total execution
// time, descending (Figure 4 shows the top five for CosmoFlow). k <= 0
// returns all groups.
func (t *Trace) TopKernels(k int) []KernelGroup {
	byName := map[string]*KernelGroup{}
	var order []string
	for _, ev := range t.Kernels {
		g, ok := byName[ev.Name]
		if !ok {
			g = &KernelGroup{Name: ev.Name}
			byName[ev.Name] = g
			order = append(order, ev.Name)
		}
		g.Count++
		g.Total += ev.Duration()
		g.Durations = append(g.Durations, float64(ev.Duration()))
	}
	groups := make([]KernelGroup, 0, len(order))
	for _, name := range order {
		groups = append(groups, *byName[name])
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].Total > groups[j].Total })
	if k > 0 && k < len(groups) {
		groups = groups[:k]
	}
	return groups
}

// KernelTime returns the total kernel execution time.
func (t *Trace) KernelTime() sim.Duration {
	var d sim.Duration
	for _, k := range t.Kernels {
		d += k.Duration()
	}
	return d
}

// MemcpyTime returns the total transfer execution time. Transfers on
// separate DMA engines can overlap, so treating the sum as occupied wall
// time is pessimistic — consistent with the paper's worst-case framing.
func (t *Trace) MemcpyTime() sim.Duration {
	var d sim.Duration
	for _, c := range t.Copies {
		d += c.Duration()
	}
	return d
}

// KernelFraction returns %Runtime_Kernel of Equation 2: the fraction of
// the recorded runtime spent executing kernels.
func (t *Trace) KernelFraction() float64 {
	rt := t.Runtime()
	if rt <= 0 {
		return 0
	}
	return float64(t.KernelTime()) / float64(rt)
}

// MemcpyFraction returns %Runtime_Memory of Equation 2.
func (t *Trace) MemcpyFraction() float64 {
	rt := t.Runtime()
	if rt <= 0 {
		return 0
	}
	return float64(t.MemcpyTime()) / float64(rt)
}
