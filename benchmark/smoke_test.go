package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: a run
// measures each deployment in a child process that is this program again
// with -child.
func TestMain(m *testing.M) {
	for _, arg := range os.Args[1:] {
		if arg == "-child" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at 1/50 of the issue's scale, untraced
// and traced. A run is correct only if every answer is and if it emitted
// exactly the metrics BENCHMARK.json declares (runWorkload checks both),
// so the JSON and the code cannot drift apart without this failing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real loopback deployments")
	}
	mf, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(mf.Workloads), len(specs))
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	for _, w := range mf.Workloads {
		sp := findSpec(w.Name)
		if sp == nil {
			t.Fatalf("BENCHMARK.json declares workload %q, the code has none", w.Name)
		}
		rep, err := runWorkload(sp, options{seed: 20050405, seconds: 0.6, trace: "both", spans: spans})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
		}
		for _, m := range rep.EndToEnd {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
		}

		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Workload string
			Spans    []struct {
				Name  string `json:"name"`
				Start int64  `json:"start_ns"`
				End   int64  `json:"end_ns"`
			}
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("%s: span file does not load: %v", w.Name, err)
		}
		if file.Workload != w.Name || len(file.Spans) == 0 {
			t.Errorf("%s: span file names %q and holds %d spans", w.Name, file.Workload, len(file.Spans))
		}
		for _, s := range file.Spans {
			if s.End < s.Start || s.Name == "" {
				t.Fatalf("%s: bad span %+v", w.Name, s)
			}
		}
	}
}

func TestMismatches(t *testing.T) {
	want := []declared{{Name: "a", Unit: "s"}, {Name: "b", Unit: "us"}, {Name: "c", Unit: "B"}}
	var got metrics
	got.add("a", 1, "s", 1)
	got.add("a", 2, "s", 1)          // twice
	got.add("b", 1, "ms", 1)         // wrong unit
	got.add("d", 1, "s", 1)          // undeclared
	got.add("c", math.NaN(), "B", 1) // not finite
	if ms := mismatches("x", got, want); len(ms) != 4 {
		t.Errorf("got %d mismatches, want 4: %q", len(ms), ms)
	}
	got = nil
	got.add("a", 1, "s", 1)
	got.add("b", 0, "us", 0)
	if ms := mismatches("x", got, want); len(ms) != 1 {
		t.Errorf("got %q, want only the missing c", ms)
	}
}
