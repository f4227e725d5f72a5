// Package rbd seeds vtimeonly violations in a package named like the
// image layer, which holds the walker kernel: a resumed walk replays
// the same admissions and visits only if the kernel's pacing and its
// restart decisions never sample host state.
package rbd

import "time"

func badStepDeadline(start time.Time) bool {
	return time.Since(start) > time.Second // want "time.Since reads the host clock"
}

func badAdmissionWait() {
	<-time.After(time.Millisecond) // want "time.After reads the host clock"
}
