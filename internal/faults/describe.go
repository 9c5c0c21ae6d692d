package faults

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/sim"
)

// Describe renders the fault windows the schedule would draw over
// [0, horizon) for `servers` GPU servers, as a human-readable dump for
// debugging churn runs (`reproduce -faultlog`). It materializes every
// window from fresh substreams, so calling it never perturbs a live
// Injector built from the same config — the windows listed are exactly
// the ones that injector delivers. Times are offsets from the start of
// the run.
func (c Config) Describe(servers int, horizon sim.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault schedule seed=%d horizon=%v\n", c.Seed, horizon)
	if !c.Enabled() {
		b.WriteString("  (fault-free)\n")
		return b.String()
	}
	if c.DropProbability > 0 {
		fmt.Fprintf(&b, "  drop: p=%.3g per message\n", c.DropProbability)
	}
	describeSpans(&b, "link flaps", Substream(c.Seed, saltFlap), c.FlapEvery, c.FlapOutage, horizon)
	describeSpans(&b, fmt.Sprintf("degraded bandwidth (x%.2g)", c.DegradeFactor),
		Substream(c.Seed, saltDegrade), c.DegradeEvery, c.DegradeFor, horizon)
	for i := 0; i < servers; i++ {
		fmt.Fprintf(&b, "  server %d:\n", i)
		describeSpans(&b, "  stalls", Substream(c.Seed, saltStall+uint64(i)), c.StallEvery, c.StallFor, horizon)
		if c.CrashAfter > 0 && c.CrashFor > 0 {
			describeSpans(&b, "  crash outages", Substream(c.Seed, saltCrash+uint64(i)), c.CrashAfter, c.CrashFor, horizon)
		} else if c.CrashAfter > 0 {
			at := sim.Duration(Substream(c.Seed, saltCrash+uint64(i)).ExpFloat64() * float64(c.CrashAfter))
			if at < horizon {
				fmt.Fprintf(&b, "    crash: permanent at %v\n", at)
			} else {
				fmt.Fprintf(&b, "    crash: none before horizon (drawn at %v)\n", at)
			}
		}
	}
	return b.String()
}

// describeSpans steps the same window generator the injector queries and
// prints every window starting before the horizon.
func describeSpans(b *strings.Builder, label string, rng *rand.Rand, mean, dur, horizon sim.Duration) {
	if mean <= 0 || dur <= 0 {
		return
	}
	end := sim.Time(0).Add(horizon)
	var starts []sim.Duration
	w := newWindows(rng, mean, dur)
	for w.next(); w.cur.start.Sub(end) < 0; w.next() {
		starts = append(starts, w.cur.start.Sub(sim.Time(0)))
	}
	fmt.Fprintf(b, "  %s (%v each): %d window(s)", label, dur, len(starts))
	for _, s := range starts {
		fmt.Fprintf(b, " [%v]", s)
	}
	b.WriteString("\n")
}
