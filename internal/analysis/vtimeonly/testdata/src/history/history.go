// Package history seeds vtimeonly violations in a package named like
// the time-series history ring: every snapshot is stamped with a vtime
// timestamp supplied by the caller, so a wall-clock read here would
// interleave host time into the ring and make windowed rate queries
// nondeterministic across replays.
package history

import "time"

type sample struct {
	at    int64
	value int64
}

func badRecordStamp(s *sample) {
	s.at = time.Now().UnixNano() // want "time.Now reads the host clock"
}

func okCallerStamp(s *sample, at int64) {
	s.at = at
}
