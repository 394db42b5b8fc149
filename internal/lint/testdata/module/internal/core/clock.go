// Package core is the determinism-analyzer fixture: it mirrors the
// real repository's internal/core import path, a detector-facing
// package, so the wall-clock check covers it.
package core

import (
	"math/rand/v2"
	"time"
)

func stamp() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since reads the wall clock"
}

func jitter() float64 {
	return rand.Float64() // want "global rand.Float64 is process-seeded"
}

func seeded(seed uint64) float64 {
	r := rand.New(rand.NewPCG(seed, seed|1))
	return r.Float64() // methods on a seeded *rand.Rand are deterministic
}
