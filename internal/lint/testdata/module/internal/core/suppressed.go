package core

import "time"

// Suppression fixtures: every violation below carries a //lint:ignore,
// so this file must produce no analyzer diagnostics — the harness fails
// on any unexpected finding, which is how silence gets asserted. Its one
// finding is the framework's own: an ignore naming an analyzer flexlint
// does not ship.

func inlineSuppressed() int64 {
	return time.Now().UnixNano() //lint:ignore determinism fixture: inline suppression silences its own line
}

func standaloneSuppressed() int64 {
	//lint:ignore determinism fixture: standalone suppression silences the next line
	return time.Now().UnixNano()
}

func multiSuppressed(a float64) bool {
	//lint:ignore determinism,floatcmp fixture: one comment can silence several analyzers on one line
	return a == float64(time.Now().Unix())
}

//lint:ignore opcount fixture: a retired analyzer's ignore // want "names \"opcount\", which is not an analyzer flexlint ships"
func retired() {}
