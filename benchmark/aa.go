package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// manifest is BENCHMARK.json, the declaration the harness reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readManifest finds BENCHMARK.json from the checkout root (where the
// harness runs the command) or from this directory (where go test runs).
func readManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// mismatches lists where a run's metrics depart from the declared ones:
// every declared metric must be emitted exactly once, with the declared
// unit and a finite value, and nothing undeclared may appear.
func mismatches(what string, got metrics, want []declared) (out []string) {
	units := make(map[string]string, len(want))
	for _, d := range want {
		units[d.Name] = d.Unit
	}
	seen := make(map[string]bool, len(got))
	for _, m := range got {
		unit, ok := units[m.Name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: %s is emitted but not declared", what, m.Name))
		case seen[m.Name]:
			out = append(out, fmt.Sprintf("%s: %s is emitted twice", what, m.Name))
		case unit != m.Unit:
			out = append(out, fmt.Sprintf("%s: %s has unit %q, declared %q", what, m.Name, m.Unit, unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			out = append(out, fmt.Sprintf("%s: %s = %v", what, m.Name, m.Value))
		}
		seen[m.Name] = true
	}
	for _, d := range want {
		if !seen[d.Name] {
			out = append(out, fmt.Sprintf("%s: %s is declared but not emitted", what, d.Name))
		}
	}
	return out
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the rule the
// harness applies.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// selfCheck runs the end-to-end set twice on the same code (aaRuns runs
// per workload and set, seeds seed..seed+aaRuns-1, the two sets taking
// turns, every deployment in a fresh process as in any run) and compares
// the two sets by the bounds in BENCHMARK.json. A metric whose own spread
// exceeds its bound is unresolved, not unchanged. It fails if a pair of
// medians differs by more than the bound in either direction (the code
// is the same, so B reading much better than A is as much a fault of the
// benchmark as B reading worse), or if a run is incorrect.
func selfCheck(o options, todo []*spec, stdout, stderr io.Writer) int {
	mf, err := readManifest()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -aa: %v\n", err)
		return 1
	}
	o.trace = "0"
	// values[set][workload][metric] collects one value per run. The two
	// sets take turns run by run, so that a drift of the host falls on
	// both alike.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
	}
	for _, sp := range todo {
		for set := range values {
			values[set][sp.name] = make(map[string][]float64)
		}
		for i := 0; i < aaRuns; i++ {
			for set := range values {
				run := o
				run.seed += int64(i)
				rep, err := runWorkload(sp, run)
				if err == nil && !rep.Correct {
					err = fmt.Errorf("incorrect: %v", rep.Notes)
				}
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: -aa: %s run %d: %v\n", sp.name, i, err)
					return 1
				}
				for _, m := range rep.EndToEnd {
					values[set][sp.name][m.Name] = append(values[set][sp.name][m.Name], m.Value)
				}
				fmt.Fprintf(stdout, "aa set %c %s run %d/%d done\n", 'A'+set, sp.name, i+1, aaRuns)
			}
		}
	}
	status := 0
	for _, sp := range todo {
		for _, d := range mf.EndToEnd {
			a1, a2, a3 := quartiles(values[0][sp.name][d.Name])
			b1, b2, b3 := quartiles(values[1][sp.name][d.Name])
			worse := ratio(b2-a2, a2) // how much worse B's median is than A's
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max(ratio(a3-a1, a2), ratio(b3-b1, b2))
			verdict := "unchanged"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case math.Abs(worse) > d.Bound:
				verdict = "DIFFERS"
				status = 1
			}
			fmt.Fprintf(stdout, "aa %s %s A=%.6g [%.6g %.6g] B=%.6g [%.6g %.6g] %s worse=%+.3f spread=%.3f bound=%.2f %s\n",
				sp.name, d.Name, a2, a1, a3, b2, b1, b3, d.Unit, worse, spread, d.Bound, verdict)
		}
	}
	return status
}
