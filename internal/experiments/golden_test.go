package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"
)

// Every Value an experiment reports is a pure function of seed and scale,
// so each shape test also pins its report to testdata/values.json. A
// change that moves an experiment fails here with the value's old and
// new reading; if the move is intended, rerun with -update and commit
// the file, so the diff shows in review:
//
//	go test ./internal/experiments -full -update
//
// -update rewrites the entries of the experiments that ran and keeps the
// rest, so an update without -full keeps the fig3 and fig16 entries.
var update = flag.Bool("update", false, "rewrite testdata/values.json from this run's reports")

const goldenPath = "testdata/values.json"

// goldenEntry is one experiment's pinned output: the scale its shape test
// runs it at and every Value it reported.
type goldenEntry struct {
	Scale  float64            `json:"scale"`
	Values map[string]float64 `json:"values"`
}

var (
	golden   = map[string]goldenEntry{} // as read from goldenPath
	produced = map[string]goldenEntry{} // this run's reports, for -update
)

func TestMain(m *testing.M) {
	flag.Parse()
	data, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(data, &golden)
	}
	if err != nil && !*update {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	if *update {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// writeGolden merges this run's reports over the file's entries, dropping
// entries of experiments that are no longer registered.
func writeGolden() error {
	reg := Registry()
	out := map[string]goldenEntry{}
	for id, e := range golden {
		if _, ok := reg[id]; ok {
			out[id] = e
		}
	}
	for id, e := range produced {
		out[id] = e
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// run executes experiment id at scale with the test seed and checks its
// Values against the golden file (or records them under -update).
func run(t *testing.T, id string, scale float64) *Report {
	t.Helper()
	r, err := Run(id, testSeed, scale)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		produced[id] = goldenEntry{Scale: scale, Values: r.Values}
		return r
	}
	want, ok := golden[id]
	if !ok {
		t.Errorf("%s: no entry in %s (go test ./internal/experiments -update)", id, goldenPath)
		return r
	}
	if want.Scale != scale {
		t.Errorf("%s: ran at scale %v, golden entry is at %v", id, scale, want.Scale)
		return r
	}
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	for k := range want.Values {
		if _, ok := r.Values[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		old, had := want.Values[k]
		now, has := r.Values[k]
		switch {
		case !had:
			t.Errorf("%s: %s = %v is not in the golden file", id, k, now)
		case !has:
			t.Errorf("%s: %s is gone (golden %v)", id, k, old)
		case old != now:
			t.Errorf("%s: %s changed: golden %v, now %v", id, k, old, now)
		}
	}
	return r
}

// TestRegistryComplete holds the golden file and the registry to the same
// set of experiments, so every registered experiment has a shape test.
func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for id := range reg {
		if _, ok := golden[id]; !ok && !*update {
			t.Errorf("experiment %s has no entry in %s", id, goldenPath)
		}
	}
	for id := range golden {
		if _, ok := reg[id]; !ok && !*update {
			t.Errorf("%s holds %s, which is not a registered experiment", goldenPath, id)
		}
	}
	if _, err := Run("nope", 1, 0.5); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := Run("fig1", 1, 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Run("fig1", 1, 2); err == nil {
		t.Error("over-scale accepted")
	}
}
