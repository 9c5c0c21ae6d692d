package fabric

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPropagationDelayHeadlineConversion(t *testing.T) {
	// The paper: 100 µs of slack ⇒ 20 km of fibre.
	if got := PropagationDelay(20); math.Abs(float64(got-100*sim.Microsecond)) > 1e-15 {
		t.Errorf("PropagationDelay(20km) = %v, want 100µs", got)
	}
	if got := DistanceForDelay(100 * sim.Microsecond); math.Abs(got-20) > 1e-9 {
		t.Errorf("DistanceForDelay(100µs) = %v km, want 20", got)
	}
}

func TestPropagationRoundTripInverse(t *testing.T) {
	f := func(raw uint32) bool {
		km := float64(raw%100000) / 10
		d := PropagationDelay(km)
		return math.Abs(DistanceForDelay(d)-km) < 1e-9*(km+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValidatedConstructorPath(t *testing.T) {
	// Constructors return recoverable errors on invalid input...
	if _, err := PathForSlack(-1); err == nil {
		t.Error("PathForSlack(-1) accepted")
	}
	if _, err := NewPath(Hop{Name: "bad", Latency: -sim.Microsecond}); err == nil {
		t.Error("NewPath with negative latency accepted")
	}
	if _, err := NewPath(Hop{Name: "bad", Bandwidth: -1}); err == nil {
		t.Error("NewPath with negative bandwidth accepted")
	}
	if p, err := NewPath(Hop{Name: "ok", Latency: sim.Microsecond, Bandwidth: 1e9}); err != nil || len(p.Hops) != 1 {
		t.Errorf("valid path rejected: %v", err)
	}
	// ...while the scalar converters are total: negative inputs clamp.
	if got := PropagationDelay(-1); got != 0 {
		t.Errorf("PropagationDelay(-1) = %v, want 0", got)
	}
	if got := DistanceForDelay(-1); got != 0 {
		t.Errorf("DistanceForDelay(-1) = %v, want 0", got)
	}
	if got := (Path{}).TransferTime(-1); got != 0 {
		t.Errorf("TransferTime(-1) = %v, want 0", got)
	}
}

// TestNonFiniteInputs: NaN and infinite latencies and NaN bandwidths are
// rejected by the validated constructors, and the scalar converters clamp
// NaN to zero the way they clamp negatives, so no NaN reaches a slack.
func TestNonFiniteInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	hops := []struct {
		name  string
		hop   Hop
		valid bool
	}{
		{"NaN latency", Hop{Name: "bad", Latency: sim.Duration(nan)}, false},
		{"+Inf latency", Hop{Name: "bad", Latency: sim.Duration(inf)}, false},
		{"-Inf latency", Hop{Name: "bad", Latency: sim.Duration(-inf)}, false},
		{"NaN bandwidth", Hop{Name: "bad", Latency: sim.Microsecond, Bandwidth: nan}, false},
		{"+Inf bandwidth", Hop{Name: "ok", Latency: sim.Microsecond, Bandwidth: inf}, true},
	}
	for _, c := range hops {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewPath(c.hop); (err == nil) != c.valid {
				t.Errorf("NewPath(%+v) err = %v, want valid=%v", c.hop, err, c.valid)
			}
		})
	}
	if _, err := PathForSlack(sim.Duration(nan)); err == nil {
		t.Error("PathForSlack(NaN) accepted")
	}
	if _, err := PathForSlack(sim.Duration(inf)); err == nil {
		t.Error("PathForSlack(+Inf) accepted")
	}
	if got := PropagationDelay(nan); got != 0 {
		t.Errorf("PropagationDelay(NaN) = %v, want 0", got)
	}
	if got := DistanceForDelay(sim.Duration(nan)); got != 0 {
		t.Errorf("DistanceForDelay(NaN) = %v, want 0", got)
	}
	if got := Preset(RowScale, nan).Latency(); math.IsNaN(float64(got)) || got <= 0 {
		t.Errorf("Preset(RowScale, NaN).Latency() = %v, want a finite positive slack", got)
	}
}

func TestPathLatencySumsHops(t *testing.T) {
	p := Path{Hops: []Hop{
		{Name: "a", Latency: 1 * sim.Microsecond},
		{Name: "b", Latency: 2 * sim.Microsecond},
	}}
	if got := p.Latency(); got != 3*sim.Microsecond {
		t.Errorf("Latency = %v", got)
	}
	if got := p.RoundTrip(); got != 6*sim.Microsecond {
		t.Errorf("RoundTrip = %v", got)
	}
}

func TestTransferTimeAddsSerialization(t *testing.T) {
	p := Path{Hops: []Hop{
		{Name: "nic", Latency: 1 * sim.Microsecond, Bandwidth: 1e9}, // 1 GB/s
		{Name: "wire", Latency: 1 * sim.Microsecond},
	}}
	// 1 MB at 1 GB/s = 1 ms serialization + 2 µs latency.
	got := p.TransferTime(1_000_000)
	want := 1*sim.Millisecond + 2*sim.Microsecond
	if math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	// Zero payload reduces to pure latency.
	if got := p.TransferTime(0); got != p.Latency() {
		t.Errorf("TransferTime(0) = %v, want %v", got, p.Latency())
	}
}

func TestScaleStrings(t *testing.T) {
	cases := map[Scale]string{
		NodeLocal:    "node-local",
		RackScale:    "rack-scale",
		RowScale:     "row-scale",
		ClusterScale: "cluster-scale",
		Scale(99):    "Scale(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestPresetSlackOrdering(t *testing.T) {
	// Slack must strictly grow with scale.
	node := SlackForPath(Preset(NodeLocal, 0))
	rack := SlackForPath(Preset(RackScale, 0))
	row := SlackForPath(Preset(RowScale, 0))
	cluster := SlackForPath(Preset(ClusterScale, 0))
	if node != 0 {
		t.Errorf("node-local slack = %v, want 0", node)
	}
	if !(rack > node && row > rack && cluster > row) {
		t.Errorf("slack ordering violated: %v %v %v %v", node, rack, row, cluster)
	}
}

func TestPresetRowScaleMagnitude(t *testing.T) {
	// The paper cites ~1 µs half-round-trip for modern HPC networks; the
	// row-scale preset at default distance must land in that regime
	// (0.5–5 µs one way).
	slack := SlackForPath(Preset(RowScale, 0))
	if slack < 500*sim.Nanosecond || slack > 5*sim.Microsecond {
		t.Errorf("row-scale slack = %v, want O(1µs)", slack)
	}
}

func TestPresetDistanceDominatesAtClusterScale(t *testing.T) {
	near := SlackForPath(Preset(ClusterScale, 0.5))
	far := SlackForPath(Preset(ClusterScale, 20))
	if far-near < 90*sim.Microsecond {
		t.Errorf("20km vs 0.5km adds only %v, want ≈97.5µs", far-near)
	}
}

func TestPresetUnknownScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scale did not panic")
		}
	}()
	Preset(Scale(42), 0)
}

func TestPathForSlack(t *testing.T) {
	zero, err := PathForSlack(0)
	if err != nil || len(zero.Hops) != 0 {
		t.Errorf("PathForSlack(0) = %v, %v", zero, err)
	}
	if got := SlackForPath(zero); got != 0 {
		t.Errorf("zero slack path latency = %v", got)
	}
	for _, want := range []sim.Duration{1 * sim.Microsecond, 100 * sim.Microsecond, 10 * sim.Millisecond} {
		p, err := PathForSlack(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := SlackForPath(p); got != want {
			t.Errorf("PathForSlack(%v) latency = %v", want, got)
		}
	}
}

func TestPathString(t *testing.T) {
	p := Preset(RowScale, 0)
	s := p.String()
	if s == "" || s == "path[]" {
		t.Errorf("String = %q", s)
	}
	if Preset(NodeLocal, 0).String() != "path[]" {
		t.Errorf("empty path String = %q", Preset(NodeLocal, 0).String())
	}
}

// Property: TransferTime is monotone non-decreasing in payload size.
func TestPropertyTransferMonotone(t *testing.T) {
	p := Preset(RowScale, 1)
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return p.TransferTime(x) <= p.TransferTime(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
