package fault

// metrics.go: one counter family for every fault the plan actually
// fired, labeled by kind. Handles are resolved at init so the hot
// hooks record with a single atomic add (see METRICS.md).

import "repro/internal/telemetry"

var (
	mInjVec = telemetry.NewCounterVec("fault_injections_total",
		"injected faults that fired, by kind", "kind")
	mInj  [numKinds]*telemetry.Counter
	mDown = mInjVec.With("osd-down")
)

func init() {
	for k := Kind(0); k < numKinds; k++ {
		mInj[k] = mInjVec.With(k.String())
	}
}
