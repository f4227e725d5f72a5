package vtimeonly

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestVtimeonly(t *testing.T) {
	analysistest.Run(t, ".", Analyzer, "core", "rbd", "fio", "bench", "telemetry", "fault", "scrub", "history", "health", "attr")
}
