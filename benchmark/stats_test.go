package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are Python's statistics.quantiles(v, n=4), the
// function an outside checker applies to the same values.
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(ten, p); !near(got, want) {
			t.Errorf("quantile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	odd := []int64{10, 20, 40, 80, 160}
	for p, want := range map[float64]float64{0.25: 15, 0.5: 40, 0.75: 120} {
		if got := quantile(odd, p); !near(got, want) {
			t.Errorf("quantile(odd, %v) = %v, want %v", p, got, want)
		}
	}
	// Past the ends the method extrapolates from the outer pair, as Python does.
	if got := quantile([]float64{1, 2}, 0.75); !near(got, 2.25) {
		t.Errorf("quantile([1 2], 0.75) = %v, want 2.25", got)
	}
	if got := quantile([]int64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := quantile([]float64{}, 0.5); !math.IsNaN(got) {
		t.Errorf("no samples: got %v, want NaN", got)
	}
}

func TestPercentilesOfSamples(t *testing.T) {
	var s samples
	for _, us := range []int64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10} { // unsorted on purpose
		s.add(us * 1000)
	}
	got := s.percentileUs(0.5, 0.9)
	if !near(got[0], 5.5) || !near(got[1], 9.9) {
		t.Errorf("p50, p90 = %v, want 5.5, 9.9", got)
	}
}

func TestBestDecile(t *testing.T) {
	var v []float64
	for i := 41; i >= 1; i-- { // 41 rounds, 41 down to 1
		v = append(v, float64(i))
	}
	if got := bestDecile(v, false); got != 5 { // lower is better: four rounds beat it
		t.Errorf("best decile of 1..41, lower better = %v, want 5", got)
	}
	if got := bestDecile(v, true); got != 37 {
		t.Errorf("best decile of 1..41, higher better = %v, want 37", got)
	}
	if got := bestDecile([]float64{3, 1, 2}, false); got != 1 { // under 11 rounds: the best
		t.Errorf("best decile of 3 rounds = %v, want 1", got)
	}
}

// Rounds that a noisy neighbour slowed must not move a timed metric; a
// count keeps its median; setup_s is the median of the set-up repeats.
func TestReductionOverRounds(t *testing.T) {
	r := runner{setups: []float64{0.3, 0.1, 0.2}}
	ops := []float64{100, 104, 98, 30, 102, 101, 55, 103, 99, 40, 100, 97}
	for i, v := range ops {
		r.rounds = append(r.rounds, map[string]float64{"ops_per_s": v, "allocs_per_op": float64(i)})
	}
	sum := r.summaries()
	got := sum["ops_per_s"]
	if got.Value != 103 || got.Min != 30 || got.Max != 104 || got.N != 12 {
		t.Errorf("ops_per_s summary = %+v, want value 103 (second best of 12)", got)
	}
	// even rounds 100 98 102 55 99 100, odd rounds 104 30 101 103 40 97: best of each
	if got.Halves != [2]float64{102, 104} || got.halfGap() != 2 {
		t.Errorf("ops_per_s halves = %v gap %v, want [102 104] 2", got.Halves, got.halfGap())
	}
	if got := sum["allocs_per_op"]; !near(got.Value, 5.5) || got.Halves != [2]float64{5, 6} {
		t.Errorf("allocs_per_op summary = %+v, want the median 5.5, halves 5 and 6", got)
	}
	if got := sum["setup_s"]; !near(got.Value, 0.2) || got.N != 3 {
		t.Errorf("setup_s summary = %+v", got)
	}
}

// Self times are rungs minus the rungs below, so on every path they must
// add back up to that path's top rung plus the harness floor.
func TestSelfTimesSumToTopRung(t *testing.T) {
	m := map[string]float64{
		"ycsb.gen_ns_per_op": 140, "ycsb.key_ns": 20,
		"core.ns_per_op": 470, "session.ns_per_op": 670, "cluster.ns_per_op": 860,
		"hodor.self_ns_per_op": 200, "cluster.self_ns_per_op": 190,
		"core.mget64_ns_per_key": 330, "session.mget64_ns_per_key": 345, "cluster.mget64_ns_per_key": 620,
		"protocol.binary_ns_per_cmd": 560, "proxy.pipe16_ns_per_op": 1950,
		"server.rtt_ns_per_op": 10000, "transport.uds_empty_rtt_ns": 7000,
	}
	top := map[string]float64{
		"lib_read_128": 140 + 860, "lib_write_5k_evict": 140 + 860, "lib_mget64_128": 20 + 620,
		"proxy_pipe16_128": 140 + 1950, "baseline_rtt_128": 140 + 10000,
	}
	for _, sp := range specs {
		sum := 0.0
		for _, row := range selfTimes(sp, m) {
			sum += row.SelfNs
		}
		if !near(sum, top[sp.name]) {
			t.Errorf("%s: self times sum to %v, want %v", sp.name, sum, top[sp.name])
		}
	}
	if got := residual(1000, 140, 470); got != 390 {
		t.Errorf("residual = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	byName := map[string]metric{}
	for _, m := range endToEnd {
		byName[m.name] = m
	}
	// steady: the halves agree to 1 %; shaky: they disagree by 60 %.
	steady := func(v float64) summary {
		return summary{Value: v, Halves: [2]float64{v * 0.995, v * 1.005}, Min: v * 0.9, Max: v * 1.1, N: 40}
	}
	shaky := func(v float64) summary {
		return summary{Value: v, Halves: [2]float64{v * 0.7, v * 1.3}, Min: v * 0.6, Max: v * 1.4, N: 40}
	}
	for _, c := range []struct {
		metric string
		a, b   summary
		want   string
	}{
		{"ops_per_s", steady(1000), steady(900), "ok"},
		{"ops_per_s", steady(1000), steady(700), "worse"},
		{"ops_per_s", steady(1000), steady(1300), "ok"},
		{"ops_per_s", shaky(1000), shaky(1000), "unresolved"},
		{"ops_per_s", shaky(1000), steady(2000), "ok"}, // every round of b beats every round of a
		{"get_p50_us", steady(1), steady(1.3), "worse"},
		{"get_p50_us", steady(1), steady(0.5), "ok"},
		{"allocs_per_op", steady(0.95), steady(0.99), "ok"},
		{"allocs_per_op", steady(0.95), steady(1.01), "worse"},
		{"hit_ratio", steady(0.90), steady(0.87), "worse"},
		{"fail_ratio", summary{}, summary{Value: 1e-6}, "worse"},
		{"fail_ratio", summary{}, summary{}, "ok"},
		{"setup_s", steady(2), steady(2.4), "ok"},
		{"setup_s", steady(2), steady(2.6), "worse"},
		{"setup_s", steady(0.03), steady(0.2), "ok"}, // under the 0.25 s floor
	} {
		if got := verdict(byName[c.metric], c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.metric, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
