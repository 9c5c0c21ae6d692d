package trace

import (
	"sort"

	"repro/internal/sim"
)

// Span is a half-open busy interval on a device engine.
type Span struct {
	Start sim.Time
	End   sim.Time
}

// Duration returns the span length.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// mergeSpans coalesces overlapping or touching spans (input need not be
// sorted).
func mergeSpans(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	s := append([]Span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	out := s[:1]
	for _, sp := range s[1:] {
		last := &out[len(out)-1]
		if sp.Start <= last.End {
			if sp.End > last.End {
				last.End = sp.End
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}

// ComputeSpans returns the merged busy intervals of the compute engine.
func (t *Trace) ComputeSpans() []Span {
	spans := make([]Span, 0, len(t.Kernels))
	for _, k := range t.Kernels {
		spans = append(spans, Span{Start: k.Start, End: k.End})
	}
	return mergeSpans(spans)
}

// ComputeGaps returns the idle intervals of the compute engine between the
// recording bounds — the gaps whose growth under slack is precisely the
// GPU starvation the paper studies.
func (t *Trace) ComputeGaps() []Span {
	busy := t.ComputeSpans()
	var gaps []Span
	cursor := t.Started
	for _, b := range busy {
		if b.Start > cursor {
			gaps = append(gaps, Span{Start: cursor, End: b.Start})
		}
		if b.End > cursor {
			cursor = b.End
		}
	}
	if t.Ended > cursor {
		gaps = append(gaps, Span{Start: cursor, End: t.Ended})
	}
	return gaps
}
