// Package fault seeds vtimeonly violations in a package named like the
// fault-injection package: a plan must replay from its seed alone, so
// host-clock reads are banned.
package fault

import "time"

func badDelayFromClock() time.Duration {
	return time.Since(time.Unix(0, 0)) // want "time.Since reads the host clock"
}

func okDurationMath(d time.Duration) time.Duration {
	return d / 2
}
