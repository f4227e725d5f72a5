// Package scrub seeds vtimeonly violations in a package named like the
// scrub walker: crash-resume replay and paced-interference measurements
// only hold if the walker never samples host state.
package scrub

import "time"

func badPacingBeat() {
	time.Sleep(20 * time.Millisecond) // want "time.Sleep reads the host clock"
}

func badWalkDeadline() bool {
	return time.Now().IsZero() // want "time.Now reads the host clock"
}

func okVirtualBudget(d time.Duration) time.Duration {
	return 3 * d
}
