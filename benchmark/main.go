// Command benchmark is the repository's end-to-end benchmark: it boots
// real eight-node MIND deployments on loopback TCP (each inside one child
// process), drives them through the ingest socket and the client RPCs
// only, checks every answer against a precomputed oracle, and reports
// end-to-end metrics (tracing off) and per-layer metrics (isolation pass,
// traced pass, counter deltas). README.md explains the workloads and
// metrics; ../BENCHMARK.json declares them to the harness.
//
//	bash benchmark/run.sh                         # every workload, every metric
//	bash benchmark/run.sh -workload point_ops     # one workload
//	bash benchmark/run.sh -trace 1 -spans s.json  # per-layer only, keep the spans
//	bash benchmark/run.sh -aa                     # A/A self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

var processStart = time.Now()

// phasesPerRun divides a run's -seconds into timed phases: an untraced
// run of a steady workload measures that many deployments, each in a
// fresh process, and reports the median over them (spec.reps).
// aaRuns is how many runs per workload each set of the A/A check makes.
const (
	phasesPerRun = 3
	aaRuns       = 5
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	spans    string
	jsonPath string
	aa       bool
	child    string // set in a child process: which deployment to measure
	rep      int    // in an end-to-end child: which repetition
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: ingest_bulk, point_ops, scan_agg, mixed_rw or all")
	flag.Int64Var(&o.seed, "seed", 20050405, "the only input to workload generation")
	flag.Float64Var(&o.seconds, "seconds", 15, "seconds of measuring per run, spent on several deployments; the preload scales with it")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics (isolation, traced pass, counters); both")
	flag.StringVar(&o.spans, "spans", "", "with tracing, write the recorded spans to this file as JSON")
	flag.StringVar(&o.jsonPath, "json", "", "also write every metric to this file as JSON")
	flag.BoolVar(&o.aa, "aa", false, "A/A self-check: run the end-to-end set twice and compare medians against BENCHMARK.json's bounds")
	flag.StringVar(&o.child, "child", "", "internal: measure one deployment in this process and print the result as JSON")
	flag.IntVar(&o.rep, "rep", 0, "internal: repetition number of an end-to-end child")
	flag.Parse()
	if o.child != "" {
		os.Exit(runChild(o, os.Stdout, os.Stderr))
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// run executes the selected workloads and returns the exit status, which
// reflects correctness only, never speed.
func run(o options, stdout, stderr io.Writer) int {
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0, 1 or both\n")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive\n")
		return 2
	}
	var todo []*spec
	if o.workload == "all" {
		todo = specs
	} else if sp := findSpec(o.workload); sp != nil {
		todo = []*spec{sp}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	if o.aa {
		return selfCheck(o, todo, stdout, stderr)
	}
	status := 0
	var reports []*report
	for _, sp := range todo {
		rep, err := runWorkload(sp, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		reports = append(reports, rep)
		rep.print(stdout)
		if !rep.Correct {
			status = 1
		}
	}
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return status
}

// Every deployment a run measures lives in a child process of its own
// (this program again, with -child). A torn-down node stays reachable
// from its pending timeout timers for half a minute, and a process that
// had already hosted one deployment measured the next a fifth slower; a
// fresh process per deployment keeps each measurement the system's own.
// The children run one after the other, and the parent waits for each.

// childResult is what a child prints on its standard output.
type childResult struct {
	Metrics   metrics  `json:"metrics"`
	Named     metrics  `json:"named,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	Digest    uint64   `json:"digest"`
	// CPUPerUnit is the phase's CPU microseconds per unit of work; the
	// parent sets the traced child's against the untraced one's.
	CPUPerUnit float64 `json:"cpu_per_unit"`
	Units      float64 `json:"units"`
}

func (c *childResult) book(in *inputs, r *result) {
	c.Digest = uint64(in.digest)
	c.Attempted, c.Failed, c.Notes = r.attempted, r.failed, r.notes
	c.Units = r.units
}

// Child modes.
const (
	childEndToEnd = "e2e"    // one untraced deployment: the end-to-end set
	childLayers   = "layers" // one untraced deployment: counters, isolation pass, budget
	childTraced   = "traced" // one deployment with the decorators on: span totals
)

// spawn runs one child and parses its result. rep selects the sub-seed
// of an end-to-end repetition.
func spawn(mode string, sp *spec, o options, rep int) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", mode, "-workload", sp.name, "-rep", strconv.Itoa(rep),
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if mode == childTraced && o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	return &res, nil
}

// runChild is the child's side of spawn.
func runChild(o options, stdout, stderr io.Writer) int {
	sp := findSpec(o.workload)
	if sp == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	var res *childResult
	var err error
	switch o.child {
	case childEndToEnd:
		res, err = endToEndChild(sp, o)
	case childLayers:
		res, err = layersChild(sp, o)
	case childTraced:
		res, err = tracedChild(sp, o)
	default:
		err = fmt.Errorf("unknown child mode %q", o.child)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
		return 1
	}
	return 0
}

// phaseSeconds is the length of one timed phase; a traced run's two
// deployments run a phase of the same length each.
func phaseSeconds(o options) float64 { return o.seconds / phasesPerRun }

// runWorkload measures one workload. Besides the deployment's answers it
// holds its own output to BENCHMARK.json on every run, so the declaration
// and the code cannot drift apart unnoticed: a departure counts as a
// failed operation.
func runWorkload(sp *spec, o options) (*report, error) {
	start := time.Now()
	mf, err := readManifest()
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: sp.name, Seed: o.seed, Seconds: o.seconds}
	var drift []string
	if o.trace != "1" {
		if err := untracedRun(sp, o, rep); err != nil {
			return nil, err
		}
		drift = append(drift, mismatches("end_to_end", rep.EndToEnd, mf.EndToEnd)...)
	}
	if o.trace != "0" {
		if err := tracedRun(sp, o, rep); err != nil {
			return nil, err
		}
		drift = append(drift, mismatches("per_layer", rep.PerLayer, mf.PerLayer)...)
	}
	rep.Attempted++
	if len(drift) > 0 {
		rep.Failed++
		rep.Notes = append(rep.Notes, drift...)
	}
	rep.Correct = rep.Failed == 0
	rep.Digest = fmt.Sprintf("%016x", uint64(rep.digest))
	rep.elapsed = time.Since(start)
	return rep, nil
}

// untracedRun measures the end-to-end metrics with tracing off: sp.reps
// deployments, each with inputs drawn from its own sub-seed of -seed and
// a phase of -seconds/phasesPerRun, and every metric's median over them. How
// fast a deployment runs depends on things no single phase can average
// out — where its memory happened to be placed, and which part of their
// merge cycle the stores were in when the preload ended — so a run
// measures several and reports the middle one.
func untracedRun(sp *spec, o options, rep *report) error {
	var sets, named []metrics
	for i := 0; i < sp.reps; i++ {
		res, err := spawn(childEndToEnd, sp, o, i)
		if err != nil {
			return err
		}
		rep.book(res)
		sets = append(sets, res.Metrics)
		named = append(named, res.Named)
	}
	rep.EndToEnd = medians(sets)
	rep.Named = medians(named)
	return nil
}

// endToEndChild is one repetition of untracedRun. setup_s runs from the
// start of this process, as a user waiting for the deployment would
// count it.
func endToEndChild(sp *spec, o options) (*childResult, error) {
	e, err := prepare(sp, o.seed*int64(sp.reps)+int64(o.rep), o.seconds, phaseSeconds(o), nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setup := time.Since(processStart).Seconds()
	r := e.timed()
	primary, replica, _ := e.verifyStored(r)
	res := &childResult{Named: namedEndToEnd(sp, r)}
	res.book(e.in, r)
	e.in = nil // the inputs are the benchmark's, not the deployment's
	heapPerRec := ratio(float64(heapInuseAfterGC()), float64(primary+replica))
	res.Metrics = endToEnd(sp, r, setup, heapPerRec, primary+replica)
	return res, nil
}

// tracedRun measures the per-layer metrics from two deployments with a
// phase each: one untraced (counter deltas, the issue-named end-to-end
// figures, the isolation pass over the same inputs, the budget, and the
// base the tracing overhead is taken against) and one with the
// decorators on (span totals).
func tracedRun(sp *spec, o options, rep *report) error {
	plain, err := spawn(childLayers, sp, o, 0)
	if err != nil {
		return err
	}
	traced, err := spawn(childTraced, sp, o, 0)
	if err != nil {
		return err
	}
	rep.book(plain)
	rep.book(traced)
	rep.PerLayer = append(plain.Metrics, traced.Metrics...)
	rep.PerLayer.add("trace.overhead_frac", ratio(traced.CPUPerUnit, plain.CPUPerUnit)-1, "frac", int(traced.Units))
	return nil
}

func layersChild(sp *spec, o options) (*childResult, error) {
	calib := hostCalib()
	e, err := prepare(sp, o.seed, o.seconds, phaseSeconds(o), nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := e.timed()
	_, _, perNode := e.verifyStored(r)
	res := &childResult{CPUPerUnit: sp.cost(r)}
	res.book(e.in, r)
	cm := counterMetrics(sp, r, perNode)
	narrowRecs, wideRecs := e.in.resultSizes()
	iso, err := isolation(e.in, e.c.nodes[0], narrowRecs, wideRecs)
	if err != nil {
		return nil, err
	}
	calib = (calib + hostCalib()) / 2
	pl := namedEndToEnd(sp, r)
	pl = append(pl, iso...)
	pl = append(pl, cm...)
	explained := budget(sp, r, iso, cm, wideRecs)
	pl.add("budget.explained_frac", explained, "frac", int(r.units))
	pl.add("budget.residual_frac", 1-explained, "frac", int(r.units))
	pl.add("host.calib_ns", calib, "ns", 2)
	res.Metrics = pl
	return res, nil
}

func tracedChild(sp *spec, o options) (*childResult, error) {
	tr := newTracer(numNodes)
	e, err := prepare(sp, o.seed, o.seconds, phaseSeconds(o), tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := e.timed()
	e.verifyStored(r)
	res := &childResult{CPUPerUnit: sp.cost(r), Metrics: traceMetrics(r, tr.totals())}
	res.book(e.in, r)
	if o.spans != "" {
		if err := tr.writeJSON(o.spans, sp.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyStored checks the accounting that must hold once a phase has
// settled: the primary copies across all nodes are exactly the records
// acknowledged (preload, stream and client inserts).
func (e *env) verifyStored(r *result) (primary, replica int, perNode []int) {
	primary, replica, perNode = e.c.stored()
	want := int(e.preload.Acked) + int(r.recsAcked) + len(r.lat[opInsert])
	r.attempted++
	if primary != want {
		r.fail(1, "stored %d primary records, acknowledged %d", primary, want)
	}
	return primary, replica, perNode
}

func (rep *report) book(c *childResult) {
	rep.digest.words([]uint64{c.Digest})
	rep.Attempted += c.Attempted
	rep.Failed += c.Failed
	rep.Notes = append(rep.Notes, c.Notes...)
}

// print writes every metric as "workload metric value unit n=<samples>"
// and then the one-line JSON result the harness reads.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s input_digest %s seed=%d seconds=%g gomaxprocs=%d elapsed=%.1fs\n",
		rep.Workload, rep.Digest, rep.Seed, rep.Seconds, runtime.GOMAXPROCS(0), rep.elapsed.Seconds())
	for _, note := range rep.Notes {
		fmt.Fprintf(w, "%s FAILURE %s\n", rep.Workload, note)
	}
	line := func(ms metrics) {
		for _, m := range ms {
			fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", rep.Workload, m.Name, m.Value, m.Unit, m.N)
		}
	}
	line(rep.EndToEnd)
	if rep.PerLayer == nil {
		line(rep.Named)
	}
	line(rep.PerLayer)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, ms := range []metrics{rep.EndToEnd, rep.PerLayer} {
		for _, m := range ms {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil { // a NaN or Inf slipped into a metric: a bug, not a result
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", data)
}
