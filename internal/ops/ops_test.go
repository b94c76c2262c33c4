package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/transport"
	"mind/internal/transport/tcpnet"
)

func testSchema() *schema.Schema {
	return &schema.Schema{
		Tag: "ops-index",
		Attrs: []schema.Attr{
			{Name: "x", Kind: schema.KindUint, Max: 9999},
			{Name: "t", Kind: schema.KindTime, Max: 86400},
			{Name: "payload"},
		},
		IndexDims: 2,
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestOperatorSurface boots a 2-node TCP deployment with the HTTP
// surface attached and walks every endpoint: readiness flips on join,
// /stats carries transport and shed counters, /peers shows both the
// managed connection table and the overlay contacts, /indices reflects
// index creation.
func TestOperatorSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	clock := transport.RealClock{}
	mkCfg := func(seed int64) mind.Config {
		cfg := mind.DefaultConfig(seed)
		cfg.Overlay.HeartbeatInterval = 300 * time.Millisecond
		cfg.Overlay.JoinTimeout = 2 * time.Second
		return cfg
	}
	ep0, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()
	ep1, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()
	node0 := mind.NewNode(ep0, clock, mkCfg(1))
	defer node0.Close()
	node1 := mind.NewNode(ep1, clock, mkCfg(2))
	defer node1.Close()

	srv, err := Serve("127.0.0.1:0", node1, ep1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Liveness is unconditional; readiness requires overlay membership.
	if code, body := get(t, base+"/healthz"); code != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before join: %d", code)
	}

	node0.Bootstrap()
	node1.Join(ep0.Addr())
	deadline := time.Now().Add(10 * time.Second)
	for !node1.Joined() {
		if time.Now().After(deadline) {
			t.Fatal("join timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _ := get(t, base+"/readyz"); code != 200 {
		t.Fatalf("readyz after join: %d", code)
	}

	// /stats: valid JSON with the transport section populated (node1
	// dialed node0 during the join).
	code, body := get(t, base+"/stats")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	var stats struct {
		Addr   string `json:"addr"`
		Joined bool   `json:"joined"`
		Node   *struct {
			Requests    uint64
			ShedInserts uint64
		} `json:"node"`
		Overlay *struct {
			Epoch     uint64   `json:"epoch"`
			Estranged []string `json:"estranged"`
			StepDowns uint64   `json:"step_downs"`
		} `json:"overlay"`
		Reversion *struct {
			Installs uint64 `json:"installs"`
		} `json:"reversion"`
		Transport struct {
			Dials        uint64 `json:"dials"`
			FramesSent   uint64 `json:"frames_sent"`
			PeersHealthy int    `json:"peers_healthy"`
		} `json:"transport"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats json: %v\n%s", err, body)
	}
	if stats.Addr != node1.Addr() || !stats.Joined {
		t.Fatalf("stats identity: %+v", stats)
	}
	if stats.Node == nil || stats.Overlay == nil || stats.Reversion == nil {
		t.Fatalf("stats missing node/overlay/reversion sections:\n%s", body)
	}
	if stats.Transport.Dials == 0 || stats.Transport.FramesSent == 0 || stats.Transport.PeersHealthy == 0 {
		t.Fatalf("transport counters empty: %+v", stats.Transport)
	}

	// /peers: both layers present, node0 visible in each.
	code, body = get(t, base+"/peers")
	if code != 200 {
		t.Fatalf("peers: %d", code)
	}
	var peers struct {
		Transport struct {
			Peers []struct {
				Addr  string `json:"addr"`
				State string `json:"state"`
			} `json:"peers"`
			Inbound int `json:"inbound"`
		} `json:"transport"`
		Overlay []struct {
			Addr string `json:"addr"`
			Code string `json:"code"`
		} `json:"overlay"`
	}
	if err := json.Unmarshal(body, &peers); err != nil {
		t.Fatalf("peers json: %v\n%s", err, body)
	}
	foundT, foundO := false, false
	for _, p := range peers.Transport.Peers {
		if p.Addr == ep0.Addr() && p.State == "healthy" {
			foundT = true
		}
	}
	for _, c := range peers.Overlay {
		if c.Addr == ep0.Addr() {
			foundO = true
		}
	}
	if !foundT || !foundO {
		t.Fatalf("peer tables missing node0 (transport=%v overlay=%v):\n%s", foundT, foundO, body)
	}

	// /indices: empty array before creation, populated after the flood.
	if code, body := get(t, base+"/indices"); code != 200 || string(body) == "null\n" {
		t.Fatalf("indices empty-state: %d %q", code, body)
	}
	sch := testSchema()
	if err := node0.CreateIndex(sch, nil); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for !node1.HasIndex(sch.Tag) {
		if time.Now().After(deadline) {
			t.Fatal("index flood timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, body = get(t, base+"/indices")
	var infos []mind.IndexInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("indices json: %v\n%s", err, body)
	}
	if len(infos) != 1 || infos[0].Tag != sch.Tag {
		t.Fatalf("indices: %+v", infos)
	}

	// The summary rollup advances in lockstep with the primary store:
	// after a few inserts, static+delta record counts across both nodes
	// must equal the acked inserts, and each node's rollup must match its
	// own primary count.
	const inserts = 10
	for i := 0; i < inserts; i++ {
		done := make(chan mind.InsertResult, 1)
		rec := schema.Record{uint64(i * 997 % 10000), uint64(i * 31), uint64(i)}
		if err := node1.Insert(sch.Tag, rec, func(r mind.InsertResult) { done <- r }); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-done:
			if !r.OK {
				t.Fatalf("insert %d failed: %+v", i, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("insert %d timed out", i)
		}
	}
	_, body = get(t, base+"/indices")
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("indices json after inserts: %v\n%s", err, body)
	}
	total := 0
	for _, info := range append(infos, node0.IndexInfos()...) {
		got := int(info.Summary.StaticRecords) + info.Summary.DeltaRecords
		if got != info.PrimaryRecords {
			t.Fatalf("summary drifted from store on %s: %d+%d != %d",
				info.Tag, info.Summary.StaticRecords, info.Summary.DeltaRecords, info.PrimaryRecords)
		}
		total += got
		// The store shape is served per version and accounts for every
		// record: ten inserts sit in tails, no carry has fired yet.
		primary, replicas := 0, 0
		for _, st := range info.Stores {
			for _, sh := range []*store.LadderShape{st.Primary, st.Replicas} {
				if sh != nil && (len(sh.Levels) != 0 || sh.Carries != 0) {
					t.Fatalf("store shape of %s v%d after %d inserts: %+v", info.Tag, st.Version, inserts, *sh)
				}
			}
			if st.Primary != nil {
				primary += st.Primary.TailRecords
			}
			if st.Replicas != nil {
				replicas += st.Replicas.TailRecords
			}
		}
		if primary != info.PrimaryRecords || replicas != info.ReplicaRecords {
			t.Fatalf("store shapes of %s hold %d+%d records, counts say %d+%d",
				info.Tag, primary, replicas, info.PrimaryRecords, info.ReplicaRecords)
		}
	}
	if total != inserts {
		t.Fatalf("summaries cover %d records, want %d", total, inserts)
	}
}
