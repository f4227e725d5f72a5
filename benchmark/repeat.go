package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"text/tabwriter"
)

// runSet is the outcome of -repeat: every selected workload run k times,
// each in its own process so no run inherits another's heap, pools or
// telemetry totals.
type runSet struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   int     `json:"trace"`
	// Values[workload][metric] holds one value per run, in seed order.
	Values map[string]map[string][]float64 `json:"values"`
	Failed map[string]int64                `json:"failed"`
}

// runOnce executes one run in a child process and parses its last line.
func runOnce(workload string, seed int64, seconds float64, trace int) (*reported, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep reported
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &rep, nil
}

// runSets runs the selected workloads repeat times each, prints median
// and quartiles per metric, and with against compares the set's medians
// with an earlier set's under the bounds of BENCHMARK.json.
func runSets(spec *benchSpec, name string, seed int64, seconds float64, trace, repeat int, out, against string) error {
	var names []string
	if name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := findWorkload(name); err != nil {
		return err
	} else {
		names = []string{name}
	}

	set := runSet{Seed: seed, Seconds: seconds, Trace: trace, Values: map[string]map[string][]float64{}, Failed: map[string]int64{}}
	for rep := 0; rep < repeat; rep++ {
		for _, wl := range names {
			r, err := runOnce(wl, seed+int64(rep), seconds, trace)
			if err != nil {
				return err
			}
			if set.Values[wl] == nil {
				set.Values[wl] = map[string][]float64{}
			}
			for m, v := range r.Metrics {
				set.Values[wl][m] = append(set.Values[wl][m], v.Value)
			}
			set.Failed[wl] += r.Failed
			fmt.Printf("run %d/%d %s seed %d: attempted %d failed %d\n", rep+1, repeat, wl, seed+int64(rep), r.Attempted, r.Failed)
		}
	}

	specs := spec.EndToEnd
	if trace == 1 {
		specs = spec.PerLayer
	}
	var base *runSet
	if against != "" {
		raw, err := os.ReadFile(against)
		if err != nil {
			return err
		}
		base = new(runSet)
		if err := json.Unmarshal(raw, base); err != nil {
			return fmt.Errorf("%s: %w", against, err)
		}
	}

	var violations []string
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, wl := range names {
		fmt.Fprintf(tw, "\n%s\tmedian\tq1\tq3\tspread\tbound\tvs baseline\n", wl)
		if set.Failed[wl] > 0 {
			violations = append(violations, fmt.Sprintf("%s: %d failed ops", wl, set.Failed[wl]))
		}
		for _, ms := range specs {
			v := set.Values[wl][ms.Name]
			med := median(v)
			q1, q3, spread := med, med, 0.0
			if len(v) >= 2 && med != 0 {
				q1, q3 = quartiles(v)
				spread = (q3 - q1) / med
			}
			// Quartiles of fewer than four runs are just the extremes,
			// so the spread is only held to the bound from four runs on.
			// setup_s is exempt: one run already reports a median of
			// several set-ups.
			if ms.Bound > 0 && len(v) >= 4 && ms.Name != "setup_s" && spread > ms.Bound {
				violations = append(violations, fmt.Sprintf("%s %s: spread %.2f %% over the bound %.2f %%", wl, ms.Name, 100*spread, 100*ms.Bound))
			}
			vs := "-"
			if base != nil && ms.Bound > 0 {
				if bv := base.Values[wl][ms.Name]; len(bv) > 0 && median(bv) != 0 {
					worse := (med - median(bv)) / median(bv)
					if ms.Better == "higher" {
						worse = -worse
					}
					vs = fmt.Sprintf("%+.2f %% worse", 100*worse)
					if worse > ms.Bound {
						violations = append(violations, fmt.Sprintf("%s %s: median %.4f is %.2f %% worse than the baseline's %.4f, bound %.2f %%",
							wl, ms.Name, med, 100*worse, median(bv), 100*ms.Bound))
					}
				}
			}
			bound := "-"
			if ms.Bound > 0 {
				bound = fmt.Sprintf("%g %%", 100*ms.Bound)
			}
			fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.2f %%\t%s\t%s\n", ms.Name, med, q1, q3, 100*spread, bound, vs)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if out != "" {
		raw, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return err
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d violations:\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
	return nil
}
