package chaos

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const sweepPath = "testdata/sweep.txt"

// sweepSeeds are the seeds TestChaosSweepGolden pins: the 500-seed
// sweep and the 2000–2100 band.
func sweepSeeds() []int64 {
	var seeds []int64
	for s := int64(1); s <= 500; s++ {
		seeds = append(seeds, s)
	}
	for s := int64(2000); s <= 2100; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// sweepLine is one seed's summary: its counts, its violations (how many,
// and the first one's invariant and event; "-" for none) and its log
// digest.
func sweepLine(seed int64, res *Result) string {
	kind, event := "-", "-"
	if len(res.Violations) > 0 {
		kind, event = res.Violations[0].Invariant, strconv.Itoa(res.Violations[0].Event)
	}
	return fmt.Sprintf("%d checks=%d inserts=%d failed=%d queries=%d incomplete=%d violations=%d first=%s@%s digest=%016x",
		seed, res.Checks, res.Inserts, res.InsertFailures, res.Queries, res.IncompleteQueries,
		len(res.Violations), kind, event, res.Digest)
}

// TestChaosSweepGolden runs every seed of sweepSeeds (default
// GenConfig) in process, spread over GOMAXPROCS workers, and holds each
// seed's summary line to testdata/sweep.txt. A failing seed is a line
// like any other: a fix to one moves its line, a new failure moves
// another, and either is committed with -update and explained in
// EXPERIMENTS.md. A mismatch prints every moved seed's committed and
// current lines.
func TestChaosSweepGolden(t *testing.T) {
	seeds := sweepSeeds()
	lines := make([]string, len(seeds))
	errs := make([]error, len(seeds))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := Run(Generate(seeds[i], GenConfig{}), Options{})
				if err != nil {
					errs[i] = err
					continue
				}
				lines[i] = sweepLine(seeds[i], res)
			}
		}()
	}
	for i := range seeds {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("seed %d: run: %v", seeds[i], err)
		}
	}

	if *update {
		var b strings.Builder
		b.WriteString("# seed  counts  violations  first violation (invariant@event)  log digest (go test ./internal/chaos -run TestChaosSweepGolden -update)\n")
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
		if err := os.WriteFile(sweepPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadSweep(t)
	moved := 0
	for i, l := range lines {
		if w := want[seeds[i]]; w != l {
			moved++
			t.Errorf("seed %d moved:\n  was %s\n  now %s", seeds[i], w, l)
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d seeds moved (rewrite %s with -update only for a change that moves them on purpose)", moved, len(seeds), sweepPath)
	}
}

// loadSweep reads the committed sweep lines, keyed by seed.
func loadSweep(t *testing.T) map[int64]string {
	t.Helper()
	f, err := os.Open(sweepPath)
	if err != nil {
		t.Fatalf("sweep lines: %v (run with -update to create)", err)
	}
	defer f.Close()
	out := make(map[int64]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seed, err := strconv.ParseInt(strings.Fields(line)[0], 10, 64)
		if err != nil {
			t.Fatalf("%s: malformed line %q", sweepPath, line)
		}
		out[seed] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", sweepPath, err)
	}
	return out
}
