package memcached

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
)

// TestMetricsSnapshot drives a few operations and checks the merged
// snapshot ties the layers together: op counters, per-class latency,
// trampoline accounting, heap occupancy.
func TestMetricsSnapshot(t *testing.T) {
	b, err := CreateStore(Config{HeapBytes: 16 << 20, HashPower: 10, NumItemLocks: 64, LatencySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, b)
	for i := 0; i < 10; i++ {
		if err := s.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get([]byte("k")); err != nil {
			t.Fatal(err)
		}
	}
	m := b.Metrics()
	if m.Ops.Gets != 10 || m.Ops.Sets != 10 {
		t.Fatalf("ops = %d gets / %d sets, want 10/10", m.Ops.Gets, m.Ops.Sets)
	}
	if got := m.Latency.Classes[core.LatGet].Count(); got != 10 {
		t.Fatalf("get latency samples = %d, want 10", got)
	}
	if p99 := m.Latency.Classes[core.LatSet].Percentile(99); p99 <= 0 {
		t.Fatalf("set p99 = %v, want > 0", p99)
	}
	if m.SampleEvery != 1 {
		t.Fatalf("SampleEvery = %d, want 1", m.SampleEvery)
	}
	if m.Library.Calls == 0 || m.Library.Crossings != m.Library.Calls {
		t.Fatalf("library calls=%d crossings=%d, want one completed crossing per call > 0",
			m.Library.Calls, m.Library.Crossings)
	}
	if m.HeapLiveBytes == 0 || m.HeapCapacity == 0 || m.HeapLiveBytes > m.HeapCapacity {
		t.Fatalf("heap live=%d capacity=%d", m.HeapLiveBytes, m.HeapCapacity)
	}
}

// scrape serves GET /metrics from h and returns each series (name and
// label set) with its value, failing the test on a series that appears
// twice. /metrics is the only format: /debug/vars must answer 404.
func scrape(t *testing.T, h http.Handler) map[string]string {
	t.Helper()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	if code := get("/debug/vars").Code; code != http.StatusNotFound {
		t.Errorf("/debug/vars answered %d, want 404", code)
	}
	rec := get("/metrics")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	series := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed /metrics line %q", line)
		}
		if _, dup := series[line[:i]]; dup {
			t.Errorf("series %s appears twice", line[:i])
		}
		series[line[:i]] = line[i+1:]
	}
	return series
}

// TestMetricsHandler scrapes /metrics through the real handler: Prometheus
// text with per-op-class quantiles, crossing counts, recovery counters,
// each series once.
func TestMetricsHandler(t *testing.T) {
	b, err := CreateStore(Config{HeapBytes: 16 << 20, HashPower: 10, NumItemLocks: 64, LatencySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, b)
	for i := 0; i < 20; i++ {
		if err := s.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get([]byte("k")); err != nil {
			t.Fatal(err)
		}
	}

	series := scrape(t, b.MetricsHandler())
	for want, value := range map[string]string{
		`plibmc_op_latency_seconds{op="get",quantile="0.5"}`:  "",
		`plibmc_op_latency_seconds{op="get",quantile="0.99"}`: "",
		`plibmc_op_latency_seconds{op="set",quantile="0.99"}`: "",
		`plibmc_op_latency_seconds_count{op="get"}`:           "20",
		`plibmc_ops_total{op="get"}`:                          "20",
		"plibmc_trampoline_crossings_total":                   "",
		"plibmc_recovery_repairs_total":                       "",
		"plibmc_recovery_locks_broken_total":                  "",
		"plibmc_heap_live_bytes":                              "",
	} {
		got, ok := series[want]
		if !ok {
			t.Errorf("/metrics missing %q", want)
		} else if value != "" && got != value {
			t.Errorf("%s = %s, want %s", want, got, value)
		}
	}
	// The quantile sample must carry a positive value, not just exist.
	if v := series[`plibmc_op_latency_seconds{op="get",quantile="0.99"}`]; v == "0" {
		t.Errorf("get p99 sample = %s, want positive value", v)
	}
}

// TestMetricsRecoveryCounters crashes a call and checks the recovery
// counters move through the snapshot.
func TestMetricsRecoveryCounters(t *testing.T) {
	b, err := CreateStore(Config{HeapBytes: 16 << 20, HashPower: 10, NumItemLocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, b)
	if err := s.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Arm("ops.store.locked", func() {
		panic("injected crash: ops.store.locked")
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]byte("k2"), []byte("v"), 0, 0); err == nil {
		t.Fatal("crashed call returned nil error")
	}
	faultpoint.DisarmAll()
	deadline := time.Now().Add(10 * time.Second)
	for b.Library().Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("library did not leave the Recovering state")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Get([]byte("k")); err != nil {
		t.Fatalf("get after recovery: %v", err)
	}
	m := b.Metrics()
	if m.Recovery.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1", m.Recovery.Repairs)
	}
	if m.Recovery.TimeToResume <= 0 {
		t.Fatalf("time to resume = %v, want > 0", m.Recovery.TimeToResume)
	}
	if m.Recovery.LastRepairAt.IsZero() {
		t.Fatal("LastRepairAt not set")
	}
	if m.Library.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", m.Library.Crashes)
	}
}
