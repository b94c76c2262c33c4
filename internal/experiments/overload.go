package experiments

import (
	"fmt"
	"time"

	"mind/internal/cluster"
	"mind/internal/metrics"
	"mind/internal/schema"
	"mind/internal/wire"
)

// Overload exercises the production-hardening layer on the simulated
// substrate: a client floods a rate-limited entry node far past its
// admission budget, then paces itself back under the limit, and finally
// keeps working through a node crash and restart. Three values encode
// the serving contract the hardening layer promises:
//
//   - overload_accounting_ok: every offered request got exactly one
//     explicit response (OK or Shed — never a silent drop), the shed
//     counters match the shed responses, and exactly the admitted
//     inserts were stored.
//   - paced_acked_frac: a client inside its rate budget is never shed.
//   - recovery_acked_frac: after a crash + same-address restart, a
//     paced workload acks fully again.
//
// The volumes (offered, admitted, shed) and the rejoin time are counted
// in simulated time, so they are as deterministic as the rest.
func Overload(seed int64, scale float64) (*Report, error) {
	r := newReport("overload", "Admission control under client overload: shed accounting and recovery")
	const (
		nNodes = 8
		rate   = 10.0 // admitted client requests per second
		burst  = 20   // bucket capacity / opening balance
	)
	nodeCfg := nodeConfig(seed)
	nodeCfg.Replication = 0 // stored-record accounting needs primaries only
	nodeCfg.ClientRateLimit = rate
	nodeCfg.ClientRateBurst = burst
	c, err := cluster.New(cluster.Options{N: nNodes, Seed: seed, Node: nodeCfg})
	if err != nil {
		return nil, err
	}
	sch := &schema.Schema{
		Tag: "overload-index",
		Attrs: []schema.Attr{
			{Name: "dest", Kind: schema.KindUint, Max: 9999},
			{Name: "time", Kind: schema.KindTime, Max: 86400},
			{Name: "src", Kind: schema.KindUint, Max: 9999},
			{Name: "uid", Kind: schema.KindUint},
		},
		IndexDims: 3,
	}
	if err := c.CreateIndex(sch); err != nil {
		return nil, err
	}
	c.Settle(5 * time.Second)

	client, err := c.Net.Endpoint("client:0")
	if err != nil {
		return nil, err
	}
	acks := make(map[uint64]*wire.ClientAck)
	qresps := make(map[uint64]*wire.ClientQueryResp)
	client.SetHandler(func(_ string, data []byte) {
		m, err := wire.Decode(data)
		if err != nil {
			return
		}
		switch resp := m.(type) {
		case *wire.ClientAck:
			acks[resp.ReqID] = resp
		case *wire.ClientQueryResp:
			qresps[resp.ReqID] = resp
		}
	})
	target := c.Nodes[0].Addr()
	nextID := uint64(0)
	sendInsert := func() {
		nextID++
		uid := nextID
		rec := schema.Record{(uid * 37) % 10000, (uid * 911) % 86401, (uid * 13) % 10000, uid}
		client.Send(target, wire.Encode(&wire.ClientInsert{ReqID: uid, Index: sch.Tag, Rec: rec}))
	}
	countAcks := func(from uint64) (ok, shed, other int) {
		for id, a := range acks {
			if id <= from {
				continue
			}
			switch {
			case a.OK && !a.Shed:
				ok++
			case a.Shed && !a.OK:
				shed++
			default:
				other++
			}
		}
		return
	}

	// Phase 1 — flood: a same-instant burst of inserts then queries,
	// several times the bucket. The admission layer must answer every
	// single request explicitly, admitting roughly the burst (plus
	// whatever refills while the backlog drains) and shedding the rest.
	floodIns := int(240 * scale)
	if floodIns < 60 {
		floodIns = 60
	}
	const floodQ = 10
	for i := 0; i < floodIns; i++ {
		sendInsert()
	}
	for i := 0; i < floodQ; i++ {
		id := uint64(1_000_000 + i)
		client.Send(target, wire.Encode(&wire.ClientQuery{ReqID: id, Index: sch.Tag, Rect: sch.FullRect()}))
	}
	if !c.Net.RunUntil(func() bool {
		return len(acks) == floodIns && len(qresps) == floodQ
	}, 10_000_000) {
		return nil, fmt.Errorf("overload: %d/%d insert and %d/%d query responses after flood",
			len(acks), floodIns, len(qresps), floodQ)
	}
	okFlood, shedFlood, otherFlood := countAcks(0)
	shedQ := 0
	for _, q := range qresps {
		if q.Shed {
			shedQ++
		}
	}
	st := c.Nodes[0].Stats()
	stored := 0
	for _, nd := range c.Nodes {
		stored += nd.StoredRecords(sch.Tag)
	}
	accounting := okFlood+shedFlood == floodIns && otherFlood == 0 &&
		okFlood >= burst && shedFlood > 0 &&
		int(st.ShedInserts) == shedFlood && int(st.ShedQueries) == shedQ &&
		stored == okFlood

	// Phase 2 — paced: the same client at half its admitted rate. Being
	// inside the budget must mean zero sheds, even right after a flood
	// (the bucket refills within a couple of paced intervals).
	pacedN := int(80 * scale)
	if pacedN < 30 {
		pacedN = 30
	}
	pacedFrom := nextID
	for i := 0; i < pacedN; i++ {
		c.Settle(200 * time.Millisecond) // 5/s against a 10/s budget
		sendInsert()
	}
	if !c.Net.RunUntil(func() bool { return len(acks) == floodIns+pacedN }, 10_000_000) {
		return nil, fmt.Errorf("overload: paced inserts unanswered")
	}
	okPaced, _, _ := countAcks(pacedFrom)

	// Phase 3 — crash and restart: kill a non-entry node, let failure
	// detection and takeover run, restart it on the same address, and
	// pace the workload again. The serving surface must be whole.
	failAfter := nodeCfg.Overlay.FailAfter
	c.Kill(3)
	c.Settle(4*failAfter + 5*time.Second)
	if err := c.Restart(3); err != nil {
		return nil, err
	}
	rejoinStart := c.Net.Now()
	if !c.Net.RunUntil(c.Nodes[3].Joined, 50_000_000) {
		return nil, fmt.Errorf("overload: node did not rejoin after restart")
	}
	rejoin := c.Net.Now().Sub(rejoinStart)
	c.Settle(2 * time.Second)
	recFrom := nextID
	recN := pacedN
	for i := 0; i < recN; i++ {
		c.Settle(200 * time.Millisecond)
		sendInsert()
	}
	if !c.Net.RunUntil(func() bool { return len(acks) == floodIns+pacedN+recN }, 10_000_000) {
		return nil, fmt.Errorf("overload: post-restart inserts unanswered")
	}
	okRec, _, _ := countAcks(recFrom)

	tb := metrics.NewTable("phase", "offered", "acked", "shed")
	tb.Row(1, float64(floodIns+floodQ), float64(okFlood), float64(shedFlood+shedQ))
	tb.Row(2, float64(pacedN), float64(okPaced), float64(pacedN-okPaced))
	tb.Row(3, float64(recN), float64(okRec), float64(recN-okRec))
	r.table(tb)

	r.Values["offered_inserts"] = float64(floodIns + pacedN + recN)
	r.Values["flood_admitted"] = float64(okFlood)
	r.Values["flood_shed"] = float64(shedFlood)
	r.Values["shed_queries"] = float64(shedQ)
	r.Values["rejoin_s"] = rejoin.Seconds()
	r.Values["overload_accounting_ok"] = b2f(accounting)
	r.Values["paced_acked_frac"] = float64(okPaced) / float64(pacedN)
	r.Values["recovery_acked_frac"] = float64(okRec) / float64(recN)
	r.notef("flood of %d inserts + %d queries: %d admitted, %d+%d shed explicitly, accounting_ok=%v; "+
		"paced acked %d/%d; post-restart acked %d/%d (rejoin %.1fs virtual)",
		floodIns, floodQ, okFlood, shedFlood, shedQ, accounting, okPaced, pacedN, okRec, recN, rejoin.Seconds())
	return r, nil
}

func b2f(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
