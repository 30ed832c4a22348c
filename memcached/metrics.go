package memcached

import (
	"net/http"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/histogram"
	"plibmc/internal/hodor"
	"plibmc/internal/metrics"
)

// The observability plane's merged snapshot: one call collects the
// scattered operation counters, the scattered latency histograms, hodor's
// trampoline accounting, and the recovery-event counters — everything an
// operator (or the HTTP exporter below) needs to see the store under load.

// RecoveryMetrics summarizes the repair coordinator's history.
type RecoveryMetrics struct {
	Repairs            int // completed quarantine→repair→resume cycles
	LocksBroken        int // cumulative dead-owner locks force-released
	ReadersRetired     int // cumulative dead-owner reader slots expired
	HistogramsRepaired int // cumulative latency histograms mended mid-record
	// LastRepair is the most recent structural repair report (per-pass
	// LocksBroken/ReadersRetired included).
	LastRepair core.RepairReport
	// TimeToResume is the wall-clock span of the most recent cycle, crash
	// observation to library resume; zero if no repair has run.
	TimeToResume time.Duration
	// LastRepairAt is when the most recent cycle completed.
	LastRepairAt time.Time
}

// CheckpointMetrics summarizes the checkpoint coordinator's history.
type CheckpointMetrics struct {
	Checkpoints    int           // images written durably
	Failures       int           // attempts that failed mid-write
	LastError      string        // message of the most recent failure ("" if none)
	LastFailureAt  time.Time     // when the most recent failure happened
	LastGeneration uint64        // generation stamp of the newest image
	LastDuration   time.Duration // wall-clock cost of the newest image
	LastAt         time.Time     // when the newest image landed
}

// Metrics is the merged observability snapshot.
type Metrics struct {
	// Ops is the scattered operation-counter snapshot.
	Ops core.Stats
	// Latency is the merged per-op-class histogram matrix; SampleEvery is
	// its per-context sampling period (1 = every operation).
	Latency     core.LatencySnapshot
	SampleEvery uint64
	// Library is hodor's call accounting.
	Library    hodor.Metrics
	Recovery   RecoveryMetrics
	Checkpoint CheckpointMetrics
	// Heap occupancy.
	HeapLiveBytes uint64
	HeapCapacity  uint64
}

// CrossingsPerOp divides completed trampoline crossings by executed store
// operations — the batching figure of merit. Unbatched traffic sits at 1.0;
// pipelined/batched traffic falls as 1/k with mean batch size k. Zero when
// no operations have run.
func (m *Metrics) CrossingsPerOp() float64 {
	ops := m.Ops.Gets + m.Ops.Sets + m.Ops.Deletes + m.Ops.Incrs +
		m.Ops.Decrs + m.Ops.Touches
	if ops == 0 {
		return 0
	}
	return float64(m.Library.Crossings) / float64(ops)
}

// MeanBatchSize is the mean number of operations per executed batch; zero
// when no batches have run.
func (m *Metrics) MeanBatchSize() float64 {
	if m.Ops.Batches == 0 {
		return 0
	}
	return float64(m.Ops.BatchedOps) / float64(m.Ops.Batches)
}

// Metrics collects the merged snapshot.
func (b *Bookkeeper) Metrics() Metrics {
	m := Metrics{
		Ops:           b.store.Stats(),
		Latency:       b.store.Latency(),
		SampleEvery:   b.store.LatencySampleEvery(),
		Library:       b.lib.Metrics(),
		HeapLiveBytes: b.alloc.LiveBytes(),
		HeapCapacity:  b.alloc.Capacity(),
	}
	b.repairReportMu.Lock()
	m.Recovery = RecoveryMetrics{
		Repairs:            b.repairs,
		LocksBroken:        b.locksBroken,
		ReadersRetired:     b.readersRetired,
		HistogramsRepaired: b.histsRepaired,
		LastRepair:         b.lastRepair,
		TimeToResume:       b.lastRepairTime,
		LastRepairAt:       b.lastRepairAt,
	}
	m.Checkpoint = CheckpointMetrics{
		Checkpoints:    b.ckpts,
		Failures:       b.ckptFailures,
		LastError:      b.ckptLastErr,
		LastFailureAt:  b.ckptLastErrAt,
		LastGeneration: b.ckptLastGen,
		LastDuration:   b.ckptLastTime,
		LastAt:         b.ckptLastAt,
	}
	b.repairReportMu.Unlock()
	return m
}

// latencyQuantiles appends quantile/count/sum samples for one histogram
// under name, with extra labels.
func latencyQuantiles(out []metrics.Sample, name string, h *histogram.Snapshot, labels ...string) []metrics.Sample {
	for _, q := range []struct {
		q string
		p float64
	}{{"0.5", 50}, {"0.99", 99}, {"0.999", 99.9}} {
		out = append(out, metrics.Sample{
			Name:   name,
			Labels: metrics.L(append(append([]string{}, labels...), "quantile", q.q)...),
			Value:  h.Percentile(q.p).Seconds(),
		})
	}
	out = append(out,
		metrics.Sample{Name: name + "_count", Labels: metrics.L(labels...), Value: float64(h.Count())},
		metrics.Sample{Name: name + "_sum", Labels: metrics.L(labels...), Value: (time.Duration(h.Sum)).Seconds()},
	)
	return out
}

// Samples renders the snapshot as Prometheus samples.
func (m *Metrics) Samples() []metrics.Sample {
	var out []metrics.Sample
	g := func(name string, v float64, labels ...string) {
		out = append(out, metrics.Sample{Name: name, Labels: metrics.L(labels...), Value: v})
	}

	// Operation counters (the scattered stats array).
	g("plibmc_ops_total", float64(m.Ops.Gets), "op", "get")
	g("plibmc_ops_total", float64(m.Ops.Sets), "op", "set")
	g("plibmc_ops_total", float64(m.Ops.Deletes), "op", "delete")
	g("plibmc_ops_total", float64(m.Ops.Incrs), "op", "incr")
	g("plibmc_ops_total", float64(m.Ops.Decrs), "op", "decr")
	g("plibmc_ops_total", float64(m.Ops.Touches), "op", "touch")
	g("plibmc_get_hits_total", float64(m.Ops.GetHits))
	g("plibmc_get_misses_total", float64(m.Ops.GetMisses))
	g("plibmc_get_fastpath_total", float64(m.Ops.GetFastpathHits))
	g("plibmc_seqlock_retries_total", float64(m.Ops.SeqlockRetries))
	g("plibmc_evictions_total", float64(m.Ops.Evictions))
	g("plibmc_expired_total", float64(m.Ops.Expired))
	g("plibmc_curr_items", float64(m.Ops.CurrItems))
	g("plibmc_bytes", float64(m.Ops.Bytes))
	g("plibmc_heap_live_bytes", float64(m.HeapLiveBytes))
	g("plibmc_heap_capacity_bytes", float64(m.HeapCapacity))

	// Per-op-class latency, from the heap-resident scattered histograms.
	g("plibmc_op_latency_sample_every", float64(m.SampleEvery))
	for class := 0; class < core.NumLatClasses; class++ {
		h := m.Latency.Classes[class]
		out = latencyQuantiles(out, "plibmc_op_latency_seconds", &h, "op", core.LatClassNames[class])
	}

	// Trampoline accounting and batch amortization.
	g("plibmc_trampoline_calls_total", float64(m.Library.Calls))
	g("plibmc_trampoline_crossings_total", float64(m.Library.Crossings))
	g("plibmc_trampoline_rejected_total", float64(m.Library.Rejected))
	g("plibmc_trampoline_crashes_total", float64(m.Library.Crashes))
	g("plibmc_batches_total", float64(m.Ops.Batches))
	g("plibmc_batched_ops_total", float64(m.Ops.BatchedOps))
	g("plibmc_crossings_per_op", m.CrossingsPerOp())
	g("plibmc_mean_batch_size", m.MeanBatchSize())

	// Gate-hardening containment counters.
	g("plibmc_attacks_contained_total", float64(m.Library.AttacksContained))
	g("plibmc_tenant_calls_reaped_total", float64(m.Library.TenantCallsReaped))
	g("plibmc_tenant_warns_total", float64(m.Library.TenantWarns))
	g("plibmc_tenant_aborts_total", float64(m.Library.TenantAborts))
	g("plibmc_gate_rejections_total", float64(m.Library.GateRejections))

	// Recovery events.
	g("plibmc_recovery_repairs_total", float64(m.Recovery.Repairs))
	g("plibmc_recovery_locks_broken_total", float64(m.Recovery.LocksBroken))
	g("plibmc_recovery_readers_retired_total", float64(m.Recovery.ReadersRetired))
	g("plibmc_recovery_histograms_repaired_total", float64(m.Recovery.HistogramsRepaired))
	g("plibmc_recovery_items_dropped_total", float64(m.Ops.ItemsDroppedInRepair))
	g("plibmc_recovery_last_resume_seconds", m.Recovery.TimeToResume.Seconds())

	// Corruption containment.
	g("plibmc_corruption_detected_total", float64(m.Ops.CorruptionsDetected))
	g("plibmc_corruption_quarantined_total", float64(m.Ops.ItemsQuarantined))

	// Checkpoint coordinator.
	g("plibmc_checkpoint_total", float64(m.Checkpoint.Checkpoints))
	g("plibmc_checkpoint_failures_total", float64(m.Checkpoint.Failures))
	g("plibmc_checkpoint_last_generation", float64(m.Checkpoint.LastGeneration))
	g("plibmc_checkpoint_last_duration_seconds", m.Checkpoint.LastDuration.Seconds())
	return out
}

// MetricsHandler serves /metrics (Prometheus text exposition) for this
// store.
func (b *Bookkeeper) MetricsHandler() http.Handler {
	return metrics.Handler(func() []metrics.Sample {
		m := b.Metrics()
		return m.Samples()
	})
}
