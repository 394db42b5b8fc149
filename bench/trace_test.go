package main

import (
	"testing"
	"time"
)

// TestSelfTime checks the span arithmetic the per-layer remainders rest
// on: self = duration − direct children's durations, at every level.
func TestSelfTime(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	root := tr.add("frame", -1, 1, 0, 100, 1)
	prep := tr.add("prepare", root, 1, 100, 130, 1) // replayed after its parent, not inside it
	tr.add("qr", prep, 1, 130, 140, 1)
	tr.add("search", prep, 1, 140, 155, 1)
	tr.add("detect", root, 1, 155, 205, 4)
	tr.add("other", -1, 2, 0, 7, 1)

	self := selfTimes(tr.spans)
	want := []int64{100 - 30 - 50, 30 - 10 - 15, 10, 15, 50, 7}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%s] = %d, want %d", tr.spans[i].Name, self[i], w)
		}
	}
	// Self times of a tree sum to its root's duration: nothing is
	// counted twice and nothing is lost.
	var sum int64
	for i, s := range tr.spans {
		if s.Frame == 1 {
			sum += self[i]
		}
	}
	if sum != 100 {
		t.Errorf("self times of frame 1 sum to %d, want the root's 100", sum)
	}

	by := sumByName(tr.spans)
	if got := perCallMicros(by, "detect"); got != 50.0/4/1e3 {
		t.Errorf("per-call time = %v, want the span's duration over its 4 calls", got)
	}
	if got := selfPerSpanMicros(by, "prepare"); got != 5.0/1e3 {
		t.Errorf("self per span = %v, want 0.005", got)
	}
}

// TestSelfTimeNegative keeps a remainder negative when children timed
// on their own cost more than the call containing them.
func TestSelfTimeNegative(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	p := tr.add("pooled", -1, 0, 0, 10, 1)
	tr.add("standalone", p, 0, 10, 25, 1)
	if self := selfTimes(tr.spans); self[0] != -5 {
		t.Errorf("self = %d, want -5 (reported as measured, not clamped)", self[0])
	}
}

func TestTracerMergeRenumbers(t *testing.T) {
	a, b := newTracer(time.Now(), 0), newTracer(time.Now(), 0)
	a.add("a", -1, 0, 0, 1, 1)
	root := b.add("b-root", -1, 0, 0, 10, 1)
	b.add("b-child", root, 0, 2, 6, 1)
	a.merge(b)
	if len(a.spans) != 3 || a.spans[2].ID != 2 || a.spans[2].Parent != 1 || a.spans[1].Parent != -1 {
		t.Fatalf("merged spans = %+v", a.spans)
	}
	if self := selfTimes(a.spans); self[1] != 6 {
		t.Errorf("merged parent's self = %d, want 6", self[1])
	}
}
