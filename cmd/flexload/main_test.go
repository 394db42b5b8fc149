package main

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"flexcore/internal/serve"
)

// us returns n microseconds.
func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// oneToHundred returns 1…100 µs in a seeded shuffled order.
func oneToHundred() []time.Duration {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = us(i + 1)
	}
	r := rand.New(rand.NewPCG(1, 2))
	r.Shuffle(len(lats), func(a, b int) { lats[a], lats[b] = lats[b], lats[a] })
	return lats
}

// TestPctNearestRank: the p-th percentile of 1…100 is p itself, and
// every percentile of one sample is that sample.
func TestPctNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = us(i + 1)
	}
	for _, p := range []int{1, 50, 95, 99, 100} {
		if got := pct(sorted, p); got != us(p) {
			t.Errorf("pct(1…100, %d) = %v, want %v", p, got, us(p))
		}
	}
	one := []time.Duration{us(7)}
	for _, p := range []int{0, 1, 50, 99, 100} {
		if got := pct(one, p); got != us(7) {
			t.Errorf("pct([7µs], %d) = %v, want 7µs", p, got)
		}
	}
}

func TestSummarize(t *testing.T) {
	got := summarize(oneToHundred())
	want := latSummary{Count: 100, MeanUs: 50.5, P50Us: 50, P95Us: 95, P99Us: 99}
	if got != want {
		t.Fatalf("summarize(1…100µs) = %+v, want %+v", got, want)
	}
}

// TestHeadlineLatencyIsDetectedFramesOnly: refusals answer in
// microseconds; the headline latency must not pool them with detected
// frames, or it improves as the server sheds more load. Each refusal
// keeps its own per-status entry.
func TestHeadlineLatencyIsDetectedFramesOnly(t *testing.T) {
	st := connStats{latBy: map[serve.Status][]time.Duration{}}
	for _, lat := range oneToHundred() {
		st.record(serve.StatusOK, 0, 1000*lat)
	}
	refused := []serve.Status{serve.StatusOverloaded, serve.StatusExpired, serve.StatusInvalid, serve.StatusDraining}
	for i := 0; i < 300; i++ {
		st.record(refused[i%len(refused)], 0, us(3))
	}
	res := &result{ElapsedSeconds: 1}
	if err := res.tally([]connStats{st}); err != nil {
		t.Fatal(err)
	}
	if res.FramesOK != 100 || res.FramesExpired != 75 || res.FramesRejected != 225 {
		t.Fatalf("ok/expired/rejected %d/%d/%d, want 100/75/225", res.FramesOK, res.FramesExpired, res.FramesRejected)
	}
	if res.LatencyP50Us != 50000 || res.LatencyP99Us != 99000 || res.LatencyMeanUs != 50500 {
		t.Fatalf("headline p50/p99/mean %v/%v/%v µs, want the StatusOK frames' 50000/99000/50500",
			res.LatencyP50Us, res.LatencyP99Us, res.LatencyMeanUs)
	}
	for _, s := range refused {
		if got := res.LatencyByStatus[s.String()]; got.Count != 75 || got.P99Us != 3 {
			t.Errorf("latency_by_status[%s] = %+v, want 75 samples at 3µs", s, got)
		}
	}
	if got := res.LatencyByStatus[serve.StatusOK.String()].Count; got != 100 {
		t.Errorf("latency_by_status[ok] has %d samples, want 100", got)
	}
}

// TestOpenLoopStallShowsAsLatency drives the open-loop pacer with a
// fake send that stalls once. The schedule must not shift: every frame
// due in the run is still offered (rate × duration), the overdue ones
// go out back to back, and the stall appears in the latencies measured
// from the due times and in the generator's lateness.
func TestOpenLoopStallShowsAsLatency(t *testing.T) {
	const stall = 30 * time.Millisecond
	c := &config{rate: 1000, conns: 1, duration: 100 * time.Millisecond}
	inflight := make(chan time.Time, 100) // due times on the fake wire, one slot per frame offered
	var mu sync.Mutex
	var lats []time.Duration
	sends := 0
	send := func(due time.Time) error {
		sends++
		if sends == 10 {
			time.Sleep(stall) // the stall under test: a write the peer holds up
		}
		inflight <- due
		return nil
	}
	recv := func() error {
		due := <-inflight
		mu.Lock()
		lats = append(lats, time.Since(due))
		mu.Unlock()
		return nil
	}
	late, err := openLoop(c, 0, time.Now(), func() error { return nil }, send, recv)
	if err != nil {
		t.Fatal(err)
	}
	if sends != 100 || len(late) != 100 || len(lats) != 100 {
		t.Fatalf("offered %d, lateness samples %d, answered %d; want rate × duration = 100 each", sends, len(late), len(lats))
	}
	var worstLat, worstLate time.Duration
	for i := range lats {
		worstLat = max(worstLat, lats[i])
		worstLate = max(worstLate, late[i])
	}
	if worstLat < stall {
		t.Fatalf("worst latency %v after a %v stall: the stall was not charged to the frames it delayed", worstLat, stall)
	}
	if worstLate < stall-2*time.Millisecond {
		t.Fatalf("worst lateness %v after a %v stall", worstLate, stall)
	}
}

// TestOpenLoopPreparesBeforeDue pins where the open loop synthesises a
// frame: before the frame's due time, right after its predecessor's
// send — never between a due time and that frame's send, where the
// synthesis would be charged to the frame as latency and hidden from
// the generator's lateness. Calls must alternate prepare, send; and a
// frame whose predecessor went out on schedule (more than a slack
// before the frame's due time) must have been prepared before its due
// time.
func TestOpenLoopPreparesBeforeDue(t *testing.T) {
	const slack = time.Millisecond
	c := &config{rate: 200, conns: 1, duration: 100 * time.Millisecond}
	var calls []string
	var prepared []time.Time // when each frame's prepare started
	var dues, sentAt []time.Time
	prepare := func() error {
		calls = append(calls, "prepare")
		prepared = append(prepared, time.Now())
		return nil
	}
	send := func(due time.Time) error {
		calls = append(calls, "send")
		dues = append(dues, due)
		sentAt = append(sentAt, time.Now())
		return nil
	}
	if _, err := openLoop(c, 0, time.Now(), prepare, send, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(dues) != 20 || len(prepared) != 20 {
		t.Fatalf("%d frames prepared, %d sent; want rate × duration = 20 each", len(prepared), len(dues))
	}
	for i, call := range calls {
		if want := [2]string{"prepare", "send"}[i%2]; call != want {
			t.Fatalf("call %d is %s, want %s: calls %v", i, call, want, calls)
		}
	}
	onSchedule := 0
	for i := 1; i < len(dues); i++ {
		if sentAt[i-1].Add(slack).After(dues[i]) {
			continue // the predecessor went out late: nothing to prepare ahead of
		}
		onSchedule++
		if !prepared[i].Before(dues[i]) {
			t.Errorf("frame %d prepared %v after its due time", i, prepared[i].Sub(dues[i]))
		}
	}
	if onSchedule == 0 {
		t.Fatal("no frame followed an on-schedule send: the test checked nothing")
	}
}
