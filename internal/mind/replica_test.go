package mind

import (
	"math/rand"
	"reflect"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/schema"
	"mind/internal/wire"
)

// Table-driven coverage of replicaSet's level selection (§3.8),
// especially the tie-breaking rules that were previously only exercised
// indirectly through full-cluster runs: one contact per common-prefix
// level, deepest levels first, ties toward the shallower contact code
// and then the smaller address.
func TestReplicaSetSelection(t *testing.T) {
	ni := func(addr, code string) wire.NodeInfo {
		return wire.NodeInfo{Addr: addr, Code: bitstr.MustParse(code)}
	}
	my := bitstr.MustParse("0101")

	cases := []struct {
		name     string
		myCode   bitstr.Code
		contacts []wire.NodeInfo
		m        int
		want     []string
	}{
		{
			name:   "replication disabled",
			myCode: my,
			contacts: []wire.NodeInfo{
				ni("a", "0100"),
			},
			m:    0,
			want: nil,
		},
		{
			name:     "no contacts",
			myCode:   my,
			contacts: nil,
			m:        2,
			want:     []string{},
		},
		{
			name:   "one contact per level deepest first",
			myCode: my,
			contacts: []wire.NodeInfo{
				ni("lvl0", "1101"), // common prefix 0
				ni("lvl1", "0001"), // common prefix 1
				ni("lvl3", "0100"), // common prefix 3
			},
			m:    ReplicateAll,
			want: []string{"lvl3", "lvl1", "lvl0"},
		},
		{
			name:   "m truncates to deepest levels",
			myCode: my,
			contacts: []wire.NodeInfo{
				ni("lvl0", "1101"),
				ni("lvl1", "0001"),
				ni("lvl3", "0100"),
			},
			m:    2,
			want: []string{"lvl3", "lvl1"},
		},
		{
			name:   "tie broken toward shallower contact code",
			myCode: my,
			contacts: []wire.NodeInfo{
				ni("deep", "010011"),  // level 3, len 6
				ni("shallow", "0100"), // level 3, len 4
			},
			m:    1,
			want: []string{"shallow"},
		},
		{
			name:   "tie on code length broken by smaller address",
			myCode: my,
			contacts: []wire.NodeInfo{
				ni("n9", "0100"),
				ni("n2", "0100"),
				ni("n5", "0100"),
			},
			m:    1,
			want: []string{"n2"},
		},
		{
			name:   "first-seen does not beat a better tie candidate",
			myCode: my,
			contacts: []wire.NodeInfo{
				ni("a-deep", "010010"), // seen first but deeper
				ni("z-shallow", "0100"),
			},
			m:    1,
			want: []string{"z-shallow"},
		},
		{
			name:   "prefix-related contacts are skipped",
			myCode: my,
			contacts: []wire.NodeInfo{
				ni("self-prefix", "01"),   // prefix of my code: level == 2 < 4, kept
				ni("extension", "010110"), // my code is its prefix: level 4 >= len, skipped
				ni("identical", "0101"),   // same code: level 4 >= len, skipped
			},
			m:    ReplicateAll,
			want: []string{"self-prefix"},
		},
		{
			name:   "duplicate levels collapse to one target",
			myCode: my,
			contacts: []wire.NodeInfo{
				ni("b", "0111"), // level 2
				ni("a", "0110"), // level 2, same length, smaller addr
				ni("c", "1000"), // level 0
			},
			m:    ReplicateAll,
			want: []string{"a", "c"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := replicaSet(tc.myCode, tc.contacts, tc.m)
			if len(got) == 0 && len(tc.want) == 0 {
				return // nil vs empty both mean "no replicas"
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("replicaSet = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestReplicaServedAggIsExact: a fail-over aggregate answer folds the
// replica store through the same visitor and key tally as a primary
// boundary cell, so it carries exact brackets — every top-k count is the
// true count with Err 0 and Floor is the heaviest key left out — over
// exactly rect ∩ the answered region's cell, checked against brute force.
func TestReplicaServedAggIsExact(t *testing.T) {
	_, nodes, _, sch := tapCluster(t, 4)
	n, owner := nodes[2], nodes[1].Code()
	ix, _ := n.getIndex(sch.Tag)
	r := rand.New(rand.NewSource(12))
	var recs []schema.Record
	region := ix.tree(0).CodeRect(owner)
	step := (region.Hi[0] - region.Lo[0]) / 20
	for i := 0; i < 2000; i++ {
		// 20 skewed keys inside the owner's cell, the other dims anywhere:
		// most records fall outside rect ∩ cell and must not be counted.
		key := region.Lo[0] + uint64(r.Intn(r.Intn(20)+1))*step
		rec := schema.Record{key, uint64(r.Intn(86401)), uint64(r.Intn(10000))}
		recs = append(recs, rec)
		n.dispatch("n1", wire.Encode(replicateOne(sch.Tag, rec, owner)))
	}
	rect := schema.Rect{Lo: []uint64{3, 1000, 17}, Hi: []uint64{9000, 80000, 9990}}
	const topK = 4
	p := piece{kind: aggKind{}, reqID: 9, origin: "n0", index: sch.Tag, versions: []uint64{0}, rect: rect, region: owner, arg: topK}
	resp := aggKind{}.resolve(n, ix, p, answer{reqID: 9}, true).(*wire.AggResp)

	cell, ok := ix.tree(0).CodeRect(owner).Intersect(rect)
	if !ok {
		t.Fatal("the owner's region misses the query rectangle")
	}
	var count uint64
	truth := make(map[uint64]uint64)
	for _, rec := range recs {
		if cell.ContainsRecord(sch, rec) {
			count++
			truth[rec[0]]++
		}
	}
	if count < 100 || len(truth) <= topK {
		t.Fatalf("fixture too thin: %d records over %d keys in the cell", count, len(truth))
	}
	if resp.Count != count {
		t.Fatalf("replica-served count %d, brute force %d", resp.Count, count)
	}
	if len(resp.Keys) != topK {
		t.Fatalf("%d top-k entries, want %d", len(resp.Keys), topK)
	}
	for i, key := range resp.Keys {
		if resp.Errs[i] != 0 || resp.Counts[i] != truth[key] {
			t.Errorf("key %d: count %d err %d, true count %d", key, resp.Counts[i], resp.Errs[i], truth[key])
		}
		delete(truth, key)
	}
	var heaviestLeft uint64
	for _, c := range truth {
		heaviestLeft = max(heaviestLeft, c)
	}
	if resp.Floor != heaviestLeft {
		t.Errorf("floor %d, heaviest key left out has %d", resp.Floor, heaviestLeft)
	}
}
