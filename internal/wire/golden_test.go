package wire

import (
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current codec")

// TestGoldenEncodings pins the wire format byte for byte: one line per
// kind, "<kind name> <hex of Encode(sample)>", in allMessages order, then
// one per header variant a kind's sample does not show. The file was
// generated on the hand-written encode/decode pairs, so a codec change
// that passes it unmodified moved nothing on the wire.
func TestGoldenEncodings(t *testing.T) {
	const path = "testdata/golden.txt"
	var b, variants strings.Builder
	for _, m := range allMessages() {
		b.WriteString(m.Kind().String() + " " + hex.EncodeToString(Encode(m)) + "\n")
		if run, ok := m.(*InsertRun); ok {
			run.Repeat = true
			variants.WriteString("insert/repeat " + hex.EncodeToString(Encode(run)) + "\n")
		}
	}
	b.WriteString(variants.String())
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(string(data), "\n")
	got := strings.Split(b.String(), "\n")
	if len(got) != len(want) {
		t.Errorf("%d golden lines, %d samples", len(want)-1, len(got)-1)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}

// TestDesignListsEveryKind keeps DESIGN.md §6 — the protocol reference —
// in step with the registry: every named kind appears there in
// backticks.
func TestDesignListsEveryKind(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 6. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 6")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	for k, e := range kinds {
		if e.name != "" && !strings.Contains(sec, "`"+e.name+"`") {
			t.Errorf("kind %d (%s) is missing from DESIGN.md §6", k, e.name)
		}
	}
}
