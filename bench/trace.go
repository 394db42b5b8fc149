package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from this package's own
// files around the layer's public entry point. Spans of one frame share
// its frame id; parent is the id of the span that caused this one (-1
// for a root).
//
// Under load a span's parent encloses it in time. In the layer replay
// the interior of an opaque call (DetectFrame, PrepareAll, Detect, a
// TCP round trip) is reconstructed by running the next layer down on
// the same frame right afterwards, so a replayed child lies after its
// parent rather than inside it; parent then means "this work is part of
// that call". Self time is defined on durations for that reason.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Frame  uint64 `json:"frame"`
	Start  int64  `json:"start_ns"` // since the tracer's base
	End    int64  `json:"end_ns"`
	// Calls is how many back-to-back calls the span covers (a batch of
	// KthClosest lookups, a DetectBatch burst); per-call time is the
	// duration over Calls.
	Calls int32 `json:"calls"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is owned by one
// goroutine at a time; concurrent load connections each record into
// their own tracer and are merged afterwards.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, capacity)}
}

// now is the tracer's clock: nanoseconds since its base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records one finished span and returns its id.
func (t *tracer) add(name string, parent int32, frame uint64, start, end int64, calls int) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Frame: frame, Start: start, End: end, Calls: int32(calls)})
	return id
}

// merge appends other's spans, re-numbering ids and parents so they
// stay consistent.
func (t *tracer) merge(other *tracer) {
	off := int32(len(t.spans))
	for _, s := range other.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns, for every span, its duration minus the durations
// of its direct children: the time the call spent in its own layer
// rather than in the layers it called. A negative self time means the
// children, timed on their own, cost more than the call that contains
// them — it is reported as measured, not clamped.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerTime is one layer's total over a trace: summed durations and
// self times, and how many spans and calls they cover.
type layerTime struct {
	durNs, selfNs int64
	spans, calls  int64
}

// sumByName totals the spans by name.
func sumByName(spans []span) map[string]*layerTime {
	self := selfTimes(spans)
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.durNs += s.dur()
		lt.selfNs += self[i]
		lt.spans++
		lt.calls += int64(s.Calls)
	}
	return out
}

// perCallMicros is the mean duration of one call of the named layer.
func perCallMicros(by map[string]*layerTime, name string) float64 {
	lt := by[name]
	if lt == nil || lt.calls == 0 {
		return 0
	}
	return float64(lt.durNs) / float64(lt.calls) / 1e3
}

// selfPerSpanMicros is the mean self time of one span of the named
// layer.
func selfPerSpanMicros(by map[string]*layerTime, name string) float64 {
	lt := by[name]
	if lt == nil || lt.spans == 0 {
		return 0
	}
	return float64(lt.selfNs) / float64(lt.spans) / 1e3
}

// writeJSON writes v to path, indented.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
