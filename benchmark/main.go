// Command benchmark is the repository's system benchmark: five fio
// workloads through the full encrypted stack on a data-retaining
// paper-shaped cluster, measured on both clocks (host wall time and the
// simulation's virtual time), with a traced mode that adds per-layer
// counts, virtual-time phase means and a wall-clock ladder of every
// layer alone. BENCHMARK.json at the repository root names the
// workloads, metrics, units, directions and bounds; README.md explains
// them.
//
//	bash benchmark/run.sh --workload randwrite-4k-xts-objend --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --repeat 3 --out benchmark/out/a.json
//	bash benchmark/run.sh --workload all --repeat 3 --against benchmark/out/a.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// reported is the last line of standard output, the form the driver reads.
type reported struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]reportedValue `json:"metrics"`
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain() error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	var (
		name    = flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
		seed    = flag.Int64("seed", 1, "selects the generated offsets, nothing else")
		seconds = flag.Float64("seconds", float64(spec.RunSeconds), "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
		repeat  = flag.Int("repeat", 1, "run each selected workload this many times, each in a fresh process, seeds seed..seed+repeat-1")
		out     = flag.String("out", "", "with -repeat: write the set of runs to this file")
		against = flag.String("against", "", "with -repeat: compare against a set written by -out and exit non-zero on a bound violation")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *name == "all" || *repeat > 1 || *out != "" || *against != "" {
		return runSets(spec, *name, *seed, *seconds, *trace, *repeat, *out, *against)
	}

	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	host := pinHost()
	r, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSize}, host)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(spec.outDir(), 0o755); err != nil {
		return err
	}
	if r.Trace {
		path, err := r.spans.write(spec.outDir(), w.name)
		if err != nil {
			return err
		}
		fmt.Println("spans:", path)
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	record := filepath.Join(spec.outDir(), fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := os.WriteFile(record, raw, 0o644); err != nil {
		return err
	}
	line, err := report(os.Stdout, spec, r)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// report prints the human table and returns the driver's result line:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one. A metric BENCHMARK.json names and the run did not produce,
// or the reverse, is an error, so the two cannot drift apart.
func report(out io.Writer, spec *benchSpec, r *result) (string, error) {
	fmt.Fprintf(out, "workload %s  seed %d  trace %v  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		r.Workload, r.Seed, r.Trace, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	fmt.Fprintf(out, "%d untraced chunks of %d ops: host rates from the fastest chunk, allocations from the median chunk, device bytes over all, virtual-time figures the mean over chunks (%d latency samples each)\n",
		r.Chunks, r.ChunkOps, r.ChunkOps)
	fmt.Fprintf(out, "calibration spin %.1f ms, drift %+.2f %%; ops attempted %d, failed %d (%d bad blocks)\n",
		r.CalibMs, r.CalibDriftPct, r.Attempted, r.Failed, r.BadBlocks)
	if r.RunError != "" {
		fmt.Fprintln(out, "fio error inside the window:", r.RunError)
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tbound")
	table := func(specs []metricSpec, m metrics) error {
		for _, ms := range specs {
			v, ok := m[ms.Name]
			if !ok {
				return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", ms.Name)
			}
			bound := "-"
			if ms.Bound > 0 {
				bound = fmt.Sprintf("%g %%", 100*ms.Bound)
			}
			fmt.Fprintf(tw, "%s\t%.4f\t%s\t%s\t%s\n", ms.Name, v, ms.Unit, ms.Better, bound)
		}
		for name := range m {
			if !hasMetric(specs, name) {
				return fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
			}
		}
		return nil
	}
	// A traced run has no luks2 twin and one set-up; its end-to-end rows
	// are there to compare against the untraced run, not to be bounded.
	e2e := spec.EndToEnd
	if r.Trace {
		e2e = nil
		for _, ms := range spec.EndToEnd {
			if _, ok := r.EndToEnd[ms.Name]; ok {
				e2e = append(e2e, ms)
			}
		}
	}
	if err := table(e2e, r.EndToEnd); err != nil {
		return "", err
	}
	if !r.Trace {
		// Always 0 on a good run, so it cannot be an end-to-end entry of
		// BENCHMARK.json (a bound is a share of the parent's median); its
		// bound is absolute: any failed op fails --against.
		fmt.Fprintf(tw, "failed_ops_pct\t%.4f\t%%\tlower\t0 abs\n", r.FailedOpsPct)
	}
	final, finalSpecs := r.EndToEnd, spec.EndToEnd
	if r.Trace {
		if err := table(spec.PerLayer, r.PerLayer); err != nil {
			return "", err
		}
		final, finalSpecs = r.PerLayer, spec.PerLayer
	}
	if err := tw.Flush(); err != nil {
		return "", err
	}

	rep := reported{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]reportedValue{}}
	for _, ms := range finalSpecs {
		rep.Metrics[ms.Name] = reportedValue{Value: final[ms.Name], Unit: ms.Unit}
	}
	line, err := json.Marshal(rep)
	return string(line), err
}

func hasMetric(specs []metricSpec, name string) bool {
	for _, ms := range specs {
		if ms.Name == name {
			return true
		}
	}
	return false
}
