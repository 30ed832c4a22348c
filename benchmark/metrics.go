package main

import "math"

// metric describes one end-to-end metric. A change may worsen it by
// bound × the baseline's value before -compare calls it worse; the same
// bounds are in BENCHMARK.json. floor, in the metric's unit, widens that
// allowance where the value is too small for a share of it to mean much.
type metric struct {
	name, unit string
	higher     bool // higher is better
	timed      bool // a time or a rate: reported as the best decile of rounds, not their median
	bound      float64
	floor      float64
}

// reduce turns the metric's per-round values into the reported one.
// Interference on a shared box only ever slows a round down, and it comes
// in bursts that outlast a round, so for anything timed the median of
// rounds follows the neighbours' load (it moved 10–38 % between runs
// here) while the best decile follows the program (README.md has the
// measurements). Counts are not skewed that way and keep the median.
func (m metric) reduce(vals []float64) float64 {
	if m.timed {
		return bestDecile(vals, m.higher)
	}
	return median(vals)
}

// endToEnd is the fixed metric table; README.md says why each was chosen.
// p99 is absent on purpose: at 1–10 µs per op on a shared 2-vCPU box it
// did not repeat, so it lives in the per-layer list.
var endToEnd = []metric{
	{"ops_per_s", "ops/s", true, true, 0.25, 0},       // throughput phase, all clients; a batch counts its keys
	{"get_p50_us", "us", false, true, 0.25, 0},        // latency phase, per Get (per MGet request on the batch workload; flush to decoded reply on the pipelined one)
	{"get_p90_us", "us", false, true, 0.25, 0},        // as get_p50_us, 90th percentile
	{"set_p50_us", "us", false, true, 0.25, 0},        // latency phase, per Set (per ExecBatch request on the batch workload)
	{"set_p90_us", "us", false, true, 0.25, 0},        // as set_p50_us, 90th percentile
	{"cpu_us_per_op", "us", false, true, 0.25, 0},     // process user+sys CPU over the throughput phase / ops
	{"allocs_per_op", "count", false, false, 0.05, 0}, // Go heap allocations over the throughput phase / ops
	{"hit_ratio", "ratio", true, false, 0.02, 0},      // verified Get hits / Gets
	{"fail_ratio", "ratio", false, false, 0, 0},       // (errors other than a miss + wrong values + refused calls) / attempted
	{"setup_s", "s", false, false, 0.25, 0.25},        // build + connect + preload, median of the repeats
}

// allowed is how far the metric may worsen from base.
func (m metric) allowed(base float64) float64 { return math.Max(m.bound*math.Abs(base), m.floor) }

// worsening is how much worse b is than a, in the metric's unit; negative
// when b is better.
func (m metric) worsening(a, b float64) float64 {
	if m.higher {
		return a - b
	}
	return b - a
}

// layerMetric describes one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	higher     bool
	moves      string // the end-to-end metric and workload it should move
}

// perLayer lists the traced run's metrics, outermost harness first. Times
// named ns_per_op are net of ycsb.gen_ns_per_op; a self time is a rung
// minus the rung below it.
var perLayer = []layerMetric{
	{"ycsb.gen_ns_per_op", "ns", false, "none: harness cost, subtracted from every rung; must not move"},
	{"ycsb.key_ns", "ns", false, "none: key rendering alone, the floor under the mget64 rungs"},
	{"ycsb.clock_ns", "ns", false, "none: one monotonic clock read"},

	{"ralloc.malloc_free_128_ns", "ns", false, "set_p50_us, ops_per_s on lib_write_5k_evict; none on lib_read_128"},
	{"ralloc.malloc_free_5k_ns", "ns", false, "set_p50_us, ops_per_s on lib_write_5k_evict"},
	{"ralloc.live_bytes_per_user_byte", "ratio", false, "hit_ratio on lib_write_5k_evict"},

	{"core.ns_per_op", "ns", false, "get_p50_us, ops_per_s on lib_read_128"},
	{"core.get_ns", "ns", false, "get_p50_us on lib_read_128"},
	{"core.set_ns", "ns", false, "set_p50_us on lib_write_5k_evict"},
	{"core.allocs_per_op", "count", false, "allocs_per_op on lib_read_128"},
	{"core.fastpath_ratio", "ratio", true, "get_p50_us on lib_read_128 (path counter)"},
	{"core.seqlock_retries_per_get", "count", false, "ops_per_s on lib_read_128 (path counter)"},
	{"core.evictions_per_set", "count", false, "set_p50_us, hit_ratio on lib_write_5k_evict (path counter)"},
	{"core.mget64_ns_per_key", "ns", false, "get_p50_us, ops_per_s on lib_mget64_128"},

	{"hodor.empty_call_ns", "ns", false, "get_p50_us, cpu_us_per_op on lib_read_128 (the paper's §2 microbenchmark)"},
	{"hodor.self_ns_per_op", "ns", false, "get_p50_us, cpu_us_per_op on lib_read_128; ~0 elsewhere"},
	{"hodor.crossings_per_op", "count", false, "~1 on lib_read_128, <0.1 on lib_mget64_128, 0 on socket workloads (path counter)"},
	{"hodor.gate_rejections_per_op", "count", false, "fail_ratio everywhere: must stay 0 (path counter)"},

	{"session.ns_per_op", "ns", false, "get_p50_us on lib_read_128"},
	{"session.allocs_per_op", "count", false, "allocs_per_op on lib_read_128"},
	{"session.mget64_ns_per_key", "ns", false, "get_p50_us on lib_mget64_128"},

	{"cluster.ns_per_op", "ns", false, "ops_per_s on lib_read_128"},
	{"cluster.self_ns_per_op", "ns", false, "ops_per_s, get_p50_us on lib_read_128"},
	{"cluster.allocs_per_op", "count", false, "allocs_per_op on lib_read_128"},
	{"cluster.mget64_ns_per_key", "ns", false, "get_p50_us, allocs_per_op on lib_mget64_128"},
	{"cluster.mean_batch", "count", true, "ops_per_s on lib_mget64_128 (path counter)"},
	{"cluster.get_p99_us", "us", false, "get_p90_us on the lib workloads"},
	{"cluster.set_p99_us", "us", false, "set_p90_us on the lib workloads"},

	{"protocol.binary_ns_per_cmd", "ns", false, "ops_per_s on proxy_pipe16_128; no move on baseline_rtt_128 beyond noise"},
	{"protocol.ascii_ns_per_cmd", "ns", false, "none of the five workloads speaks ASCII: informational"},
	{"protocol.allocs_per_cmd", "count", false, "allocs_per_op on proxy_pipe16_128"},
	{"protocol.bytes_per_cmd", "bytes", false, "ops_per_s on proxy_pipe16_128"},

	{"hybrid.dispatch_ns_per_cmd", "ns", false, "tracks proxy_pipe16_128 once the wire loops merge; today informational"},
	{"hybrid.rtt_ns_per_op", "ns", false, "as above"},
	{"hybrid.self_ns_per_op", "ns", false, "as above"},
	{"hybrid.allocs_per_op", "count", false, "as above"},

	{"proxy.rtt_ns_per_op", "ns", false, "get_p50_us on a depth-1 proxy client (none of the five; the pipe16 row is the workload's)"},
	{"proxy.self_ns_per_op", "ns", false, "ops_per_s, cpu_us_per_op on proxy_pipe16_128"},
	{"proxy.pipe16_ns_per_op", "ns", false, "ops_per_s, cpu_us_per_op, get_p90_us on proxy_pipe16_128"},
	{"proxy.allocs_per_op", "count", false, "allocs_per_op on proxy_pipe16_128"},
	{"proxy.mean_batch", "count", true, "ops_per_s on proxy_pipe16_128"},
	{"proxy.op_p99_us", "us", false, "get_p90_us on proxy_pipe16_128"},

	{"server.rtt_ns_per_op", "ns", false, "get_p50_us on baseline_rtt_128"},
	{"server.allocs_per_op", "count", false, "allocs_per_op on baseline_rtt_128"},
	{"server.op_p99_us", "us", false, "get_p90_us on baseline_rtt_128"},
	{"transport.uds_empty_rtt_ns", "ns", false, "none: the floor under every socket rung"},

	{"go.gc_cycles_per_mop", "count", false, "p90 figures on proxy_pipe16_128 and baseline_rtt_128 (path counter)"},
	{"go.gc_pause_us_per_mop", "us", false, "as above"},

	{"path.ns_per_op", "ns", false, "the workload's own path, traced: 1e9 / single-client ops_per_s"},
	{"path.untimed_ns_per_op", "ns", false, "the same replay without stamps"},
	{"trace_overhead_ratio", "ratio", false, "none: traced / untimed on the workload's own path"},
}
