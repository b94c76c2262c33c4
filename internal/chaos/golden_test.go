package chaos

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"testing"
)

// -update rewrites testdata/digests.txt from the current code: the
// conventional golden-file flag, for a change that moves the event log
// on purpose.
var update = flag.Bool("update", false, "rewrite testdata/digests.txt and testdata/sweep.txt")

const (
	goldenPath  = "testdata/digests.txt"
	goldenSeeds = 30
)

// goldenRun is one seed's committed fingerprint: the log digest, plus a
// 16-bit hash per log line so a mismatch can name the first line that
// moved without committing the logs themselves.
type goldenRun struct {
	digest uint64
	lines  []uint16
}

func fingerprint(res *Result) goldenRun {
	g := goldenRun{digest: res.Digest, lines: make([]uint16, len(res.Log))}
	for i, line := range res.Log {
		h := fnv.New32a()
		h.Write([]byte(line))
		g.lines[i] = uint16(h.Sum32())
	}
	return g
}

func loadGolden(t *testing.T) map[int64]goldenRun {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden digests: %v (run with -update to create)", err)
	}
	defer f.Close()
	out := make(map[int64]goldenRun)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		seed, err1 := strconv.ParseInt(fields[0], 10, 64)
		digest, err2 := strconv.ParseUint(fields[1], 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		g := goldenRun{digest: digest}
		for _, f := range fields[2:] {
			v, err := strconv.ParseUint(f, 16, 16)
			if err != nil {
				t.Fatalf("%s: seed %d: malformed line hash %q", goldenPath, seed, f)
			}
			g.lines = append(g.lines, uint16(v))
		}
		out[seed] = g
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return out
}

// TestChaosDigestGolden pins the event log of seeds 1..30 (default
// GenConfig) to the committed digests: a refactor that claims "same
// behaviour" must reproduce every run bit-for-bit, and a change that
// moves one says so by updating the file in the same commit.
func TestChaosDigestGolden(t *testing.T) {
	got := make([]goldenRun, goldenSeeds)
	logs := make([][]string, goldenSeeds)
	t.Run("run", func(t *testing.T) {
		for i := 0; i < goldenSeeds; i++ {
			i := i
			t.Run(fmt.Sprintf("seed%d", i+1), func(t *testing.T) {
				t.Parallel()
				res, err := Run(Generate(int64(i+1), GenConfig{}), Options{})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				got[i], logs[i] = fingerprint(res), res.Log
			})
		}
	})
	if t.Failed() {
		return
	}
	if *update {
		var b strings.Builder
		b.WriteString("# seed  log digest  16-bit FNV-1a of each log line (go test ./internal/chaos -run TestChaosDigestGolden -update)\n")
		for i, g := range got {
			fmt.Fprintf(&b, "%d %016x", i+1, g.digest)
			for _, l := range g.lines {
				fmt.Fprintf(&b, " %04x", l)
			}
			b.WriteByte('\n')
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := loadGolden(t)
	for i, g := range got {
		seed := int64(i + 1)
		want, ok := golden[seed]
		if !ok {
			t.Errorf("seed %d: no golden digest (run with -update)", seed)
			continue
		}
		if g.digest == want.digest {
			continue
		}
		at := 0
		for at < len(g.lines) && at < len(want.lines) && g.lines[at] == want.lines[at] {
			at++
		}
		line := "<log ended; golden has more lines>"
		if at < len(logs[i]) {
			line = logs[i][at]
		}
		t.Errorf("seed %d: digest %016x, golden %016x; first differing log line is #%d (of %d, golden %d):\n  %s",
			seed, g.digest, want.digest, at+1, len(g.lines), len(want.lines), line)
	}
}
