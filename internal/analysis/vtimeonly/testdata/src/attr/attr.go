// Package attr seeds vtimeonly violations in a package named like the
// tail-latency attribution plane: phase durations are virtual time
// charged by the cost model, so sampling the host clock here would mix
// wall time into the attribution tables and break replay determinism.
package attr

import "time"

type phaseRow struct {
	sum int64
}

func badPhaseStamp(r *phaseRow) {
	r.sum += time.Since(time.Unix(0, 0)).Nanoseconds() // want "time.Since reads the host clock"
}

func okObserve(r *phaseRow, d time.Duration) {
	r.sum += int64(d)
}
