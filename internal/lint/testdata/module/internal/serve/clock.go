package serve

import "time"

// admitStamp reads the wall clock for a deadline, as the real serve
// package does by design: outside the detector-facing packages the
// determinism analyzer's wall-clock check is off.
func admitStamp(budget time.Duration) time.Time {
	return time.Now().Add(budget)
}

// idleUsers shows the other determinism checks still cover serve: a
// map range writing outer state depends on iteration order.
func idleUsers(lastSeen map[uint32]time.Time, cutoff time.Time) int {
	n := 0
	for _, t := range lastSeen {
		if t.Before(cutoff) {
			n++ // want "map iteration writes to n"
		}
	}
	return n
}
