package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// The experiment smoke tests run every figure/table regeneration at a
// small scale and assert the paper's qualitative claims (the "shape");
// run also pins every Value to the golden file (golden_test.go).

const testSeed = 20050405 // ICDE 2005

func TestFig1Shape(t *testing.T) {
	r := run(t, "fig1", 0.05)
	// Aggregation + filtering must reduce counts strongly at 30s/50KB.
	if r.Values["reduction_w30_t50"] < 10 {
		t.Errorf("30s/50KB reduction = %.1fx, want >= 10x", r.Values["reduction_w30_t50"])
	}
	// Pure aggregation (no filter) is monotone in window size; with a
	// byte threshold larger windows accumulate more volume per aggregate
	// and can pass MORE aggregates, so monotonicity only holds at t=0.
	if r.Values["reduction_w300_t0"] < r.Values["reduction_w30_t0"] {
		t.Error("larger window must aggregate at least as much at threshold 0")
	}
	// Filtering strengthens reduction at a fixed window.
	if r.Values["reduction_w30_t50"] < r.Values["reduction_w30_t0"] {
		t.Error("filtering must not weaken reduction")
	}
	if !strings.Contains(r.String(), "fig1") {
		t.Error("report rendering broken")
	}
}

func TestFig2Shape(t *testing.T) {
	r := run(t, "fig2", 0.05)
	// Skew: heaviest bin far above the mean on every index.
	for _, k := range []string{"imbalance_index1", "imbalance_index2", "imbalance_index3"} {
		if r.Values[k] < 3 {
			t.Errorf("%s = %.1f, want >= 3 (order-of-magnitude skew claim)", k, r.Values[k])
		}
	}
}

// fig3's multi-day generation and fig16's 3 × 102-node failure
// escalation are the two slowest shape tests, about 20 s each on a 2-vCPU
// host.
func TestFig3Shape(t *testing.T) {
	r := run(t, "fig3", 0.22)
	// Day-to-day mismatch must be well below hour-to-hour at every
	// granularity (the §3.7 justification for daily re-balancing).
	for _, k := range []int{2, 3, 4} {
		day := r.Values[fmt.Sprintf("day_mismatch_k%d", k)]
		hour := r.Values[fmt.Sprintf("hour_mismatch_k%d", k)]
		if day >= hour {
			t.Errorf("k=%d: day mismatch %.3f >= hour mismatch %.3f", k, day, hour)
		}
		if day > 0.5 {
			t.Errorf("k=%d: day mismatch %.3f too large for stationary traffic", k, day)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	r := run(t, "fig7", 0.04)
	if r.Values["inserted"] < 100 {
		t.Fatalf("only %.0f inserts measured", r.Values["inserted"])
	}
	med := r.Values["median_overall"]
	if med <= 0 || med > 5 {
		t.Errorf("median insertion latency %.3f s implausible for the WAN model", med)
	}
	if r.Values["failed"] > r.Values["inserted"]*0.02 {
		t.Errorf("%.0f failed inserts out of %.0f", r.Values["failed"], r.Values["inserted"])
	}
}

func TestFig8Shape(t *testing.T) {
	// Queueing spikes need enough per-window burst volume; run this one
	// slightly larger than the other smoke tests.
	r := run(t, "fig8", 0.08)
	// The worst link's max delay should stand well above its median
	// (queueing behind bursts), the Fig 8 phenomenon.
	if r.Values["worst_link_max_s"] <= 1.5*r.Values["worst_link_median_s"] {
		t.Errorf("no queueing spikes: max %.3f vs median %.3f",
			r.Values["worst_link_max_s"], r.Values["worst_link_median_s"])
	}
}

func TestFig9Fig10Shape(t *testing.T) {
	r9 := run(t, "fig9", 0.04)
	// Locality: most queries touch few of the 34 nodes.
	if r9.Values["frac_le_4"] < 0.5 {
		t.Errorf("only %.0f%% of queries within 4 nodes", 100*r9.Values["frac_le_4"])
	}
	if r9.Values["frac_le_34"] < 0.999 {
		t.Error("CDF must reach 1 at the node count")
	}
	r10 := run(t, "fig10", 0.04)
	if r10.Values["median_s"] <= 0 || r10.Values["median_s"] > 5 {
		t.Errorf("query latency median %.3f s implausible", r10.Values["median_s"])
	}
	// Skewed tail: p90 above median.
	if r10.Values["p90_s"] < r10.Values["median_s"] {
		t.Error("p90 below median")
	}
}

func TestFig11Shape(t *testing.T) {
	r := run(t, "fig11", 0.04)
	// The outage must show up as a latency spike; service must recover.
	if r.Values["during_max_s"] < 3*r.Values["before_median_s"] {
		t.Errorf("outage invisible: during max %.3f vs baseline median %.3f",
			r.Values["during_max_s"], r.Values["before_median_s"])
	}
	if r.Values["after_median_s"] > 5*r.Values["before_median_s"] {
		t.Errorf("no recovery after outage: %.3f vs %.3f",
			r.Values["after_median_s"], r.Values["before_median_s"])
	}
}

func TestFig12Shape(t *testing.T) {
	r := run(t, "fig12", 0.04)
	// No link carries more than a modest share of all inserts — the
	// anti-centralization claim.
	if r.Values["max_link_frac_of_inserts"] > 0.5 {
		t.Errorf("busiest link carries %.0f%% of inserts", 100*r.Values["max_link_frac_of_inserts"])
	}
	if r.Values["links"] < 30 {
		t.Errorf("only %.0f links used", r.Values["links"])
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("two-day workload")
	}
	r := run(t, "fig13", 0.05)
	// Balanced cuts must flatten the distribution substantially on the
	// heavily skewed indices.
	for _, i := range []int{1, 2, 3} {
		u := r.Values[fmt.Sprintf("uniform_imbalance_i%d", i)]
		b := r.Values[fmt.Sprintf("balanced_imbalance_i%d", i)]
		if b >= u {
			t.Errorf("index %d: balanced imbalance %.1f not below uniform %.1f", i, b, u)
		}
	}
	u1, b1 := r.Values["uniform_imbalance_i1"], r.Values["balanced_imbalance_i1"]
	if u1/b1 < 1.5 {
		t.Errorf("index1 balance improvement only %.2fx", u1/b1)
	}
}

func TestFig14Fig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("102-node run")
	}
	r14 := run(t, "fig14", 0.05)
	if r14.Values["median_s"] <= 0 || r14.Values["median_s"] > 2 {
		t.Errorf("102-node median insertion latency %.3f s", r14.Values["median_s"])
	}
	if r14.Values["inserted"] < 500 {
		t.Errorf("only %.0f inserts", r14.Values["inserted"])
	}
	r15 := run(t, "fig15", 0.05)
	// Most insertions within 5 hops on a ~7-bit hypercube.
	if r15.Values["insert_hops_le5"] < 0.7 {
		t.Errorf("only %.0f%% of inserts within 5 hops", 100*r15.Values["insert_hops_le5"])
	}
	if r15.Values["query_nodes_le5"] < 0.5 {
		t.Errorf("only %.0f%% of queries within 5 nodes", 100*r15.Values["query_nodes_le5"])
	}
}

func TestFig16Shape(t *testing.T) {
	r := run(t, "fig16", 0.05)
	// All configurations perfect with no failures.
	for _, k := range []string{"none_0", "one_0", "full_0"} {
		if r.Values[k] < 0.99 {
			t.Errorf("%s = %.2f, want ~1 with no failures", k, r.Values[k])
		}
	}
	// Replication dominates no-replication once failures bite.
	if r.Values["one_15"] < r.Values["none_15"] {
		t.Errorf("one-replica (%.2f) below none (%.2f) at 15%%", r.Values["one_15"], r.Values["none_15"])
	}
	if r.Values["one_15"] < 0.9 {
		t.Errorf("one replica at 15%% failures = %.2f, want ≈1 (paper: survives 15%%)", r.Values["one_15"])
	}
	if r.Values["one_30"] < r.Values["none_30"] {
		t.Errorf("one-replica (%.2f) below none (%.2f) at 30%%", r.Values["one_30"], r.Values["none_30"])
	}
	if r.Values["full_30"] < r.Values["none_30"] {
		t.Errorf("full (%.2f) below none (%.2f) at 30%%", r.Values["full_30"], r.Values["none_30"])
	}
	// No replication decays materially by 50%.
	if r.Values["none_50"] > 0.9 {
		t.Errorf("none at 50%% failures = %.2f, should have lost data", r.Values["none_50"])
	}
	// Replicated configurations keep a material share of queries whole
	// even at 50%.
	if r.Values["one_50"] < r.Values["none_50"] {
		t.Errorf("one-replica (%.2f) below none (%.2f) at 50%%", r.Values["one_50"], r.Values["none_50"])
	}
	// Full replication survives beyond 50 % failures (the paper's Fig 16).
	for _, k := range []string{"full_40", "full_50"} {
		if r.Values[k] < 0.9 {
			t.Errorf("%s = %.2f, want ≥ 0.9 (paper: full replication survives > 50%%)", k, r.Values[k])
		}
	}
}

func TestTable17Shape(t *testing.T) {
	r := run(t, "table17", 0.2)
	if r.Values["recall"] < 1 {
		t.Errorf("MIND recall = %.2f, paper reports perfect recall", r.Values["recall"])
	}
	if r.Values["offline_detector_recall"] < 1 {
		t.Errorf("offline detector recall = %.2f", r.Values["offline_detector_recall"])
	}
	if r.Values["avg_response_s"] <= 0 || r.Values["avg_response_s"] > 10 {
		t.Errorf("avg response %.2f s implausible", r.Values["avg_response_s"])
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple cluster builds")
	}
	cuts := run(t, "ablation-cuts", 0.1)
	if cuts.Values["balanced_imbalance"] >= cuts.Values["uniform_imbalance"] {
		t.Errorf("balanced cuts did not improve balance: %.1f vs %.1f",
			cuts.Values["balanced_imbalance"], cuts.Values["uniform_imbalance"])
	}
	hist := run(t, "ablation-hist", 0.1)
	if hist.Values["imbalance_k16"] >= hist.Values["imbalance_k1"] {
		t.Error("finer histograms should balance better than k=1")
	}
	st := run(t, "ablation-store", 0.1)
	if kd, sc := st.Values["kd_matches"], st.Values["scan_matches"]; kd != sc || sc == 0 {
		t.Errorf("k-d store matched %.0f records, scan %.0f", kd, sc)
	}
	arch := run(t, "ablation-arch", 0.1)
	if arch.Values["mind_nodes"] >= arch.Values["flood_nodes"] {
		t.Errorf("MIND touches %.1f nodes vs flooding %.1f", arch.Values["mind_nodes"], arch.Values["flood_nodes"])
	}
	if arch.Values["central_busiest_link"] <= arch.Values["mind_busiest_link"] {
		t.Error("centralized busiest link should exceed MIND's")
	}
	hp := run(t, "ablation-history", 0.2)
	if hp.Values["history_recall"] < 0.99 || hp.Values["transfer_recall"] < 0.99 {
		t.Errorf("post-join recall: history %.2f transfer %.2f", hp.Values["history_recall"], hp.Values["transfer_recall"])
	}
	co := run(t, "ablation-cutorder", 0.1)
	if len(co.Tables) == 0 {
		t.Error("cut-order report empty")
	}
	rec := run(t, "ablation-recovery", 0.05)
	// The detour matches the expanding ring it replaced (0.733 complete,
	// recall 0.99927; no recovery completes 0.600), EXPERIMENTS.md.
	if rec.Values["on_complete"] < 0.733 || rec.Values["on_recall"] < 0.9992 {
		t.Errorf("detour completes %.3f of queries with recall %.5f; the ring read 0.733 and 0.99927",
			rec.Values["on_complete"], rec.Values["on_recall"])
	}
}

func TestOverloadShape(t *testing.T) {
	r := run(t, "overload", 0.05)
	if r.Values["overload_accounting_ok"] != 1 {
		t.Errorf("shed accounting broken: %v", r.Notes)
	}
	if r.Values["paced_acked_frac"] != 1 {
		t.Errorf("paced client shed: acked frac %.2f", r.Values["paced_acked_frac"])
	}
	if r.Values["recovery_acked_frac"] != 1 {
		t.Errorf("post-restart client shed: acked frac %.2f", r.Values["recovery_acked_frac"])
	}
	if r.Values["flood_shed"] == 0 {
		t.Error("flood produced no sheds: overload never engaged")
	}
}

func TestWhaleAggShape(t *testing.T) {
	r := run(t, "whale-agg", 0.05)
	if r.Values["agg_ok"] != 1 {
		t.Errorf("rollup differs from the exact fold: %v", r.Notes)
	}
	if r.Values["whale_found"] != 1 {
		t.Errorf("a whale is missing or miscounted: %v", r.Notes)
	}
}
