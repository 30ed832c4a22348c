package core

import (
	"testing"

	"plibmc/internal/histogram"
	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

func latOpts() Options {
	return Options{HashPower: 8, NumItemLocks: 16, LatencySampleEvery: 1}
}

func TestLatencyRecordsEveryClass(t *testing.T) {
	s, c := newStore(t, 1<<22, latOpts())
	k, v := []byte("k"), []byte("v")
	if err := c.Set(k, v, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Get(k); err != nil {
		t.Fatal(err)
	}
	c.MGet([][]byte{k, []byte("miss")})
	if err := do(c, BatchOp{Code: BatchTouch, Key: k, Exptime: 60}).Err; err != nil {
		t.Fatal(err)
	}
	if err := do(c, BatchOp{Code: BatchDelete, Key: k}).Err; err != nil {
		t.Fatal(err)
	}
	execBatch(c, []BatchOp{{Code: BatchSet, Key: k, Value: v}})
	m := s.NewMaintainer(2)
	m.RunOnce()

	ls := s.Latency()
	for class, name := range LatClassNames {
		if ls.Classes[class].Count() == 0 {
			t.Errorf("class %q recorded no samples", name)
		}
	}
	// The nested lookups inside MGet must not sample themselves, so the
	// get class saw exactly the one explicit Get, and an MGet is a batch:
	// it and the ExecBatch are one sample each.
	if n := ls.Classes[LatGet].Count(); n != 1 {
		t.Fatalf("get class count = %d, want 1 (MGet inner lookups must not double-sample)", n)
	}
	if n := ls.Classes[LatBatch].Count(); n != 2 {
		t.Fatalf("batch class count = %d, want 2 (one MGet, one ExecBatch)", n)
	}
}

func TestLatencySampling(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16, LatencySampleEvery: 8})
	if err := c.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		c.Get([]byte("k"))
	}
	ls := s.Latency()
	n := ls.Classes[LatGet].Count()
	if n != 100 {
		t.Fatalf("sampled %d of 800 gets with period 8, want 100", n)
	}
}

func TestLatencyDisabled(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16, DisableLatency: true})
	c.Set([]byte("k"), []byte("v"), 0, 0)
	for i := 0; i < 100; i++ {
		c.Get([]byte("k"))
	}
	var total uint64
	for _, h := range s.Latency().Classes {
		total += h.Count()
	}
	if total != 0 {
		t.Fatalf("disabled store recorded %d samples", total)
	}
	if s.LatencyEnabled() {
		t.Fatal("LatencyEnabled should be false")
	}
}

// Latency histograms are heap-resident: they must survive a detach and
// re-attach of the same heap (the crash-image / plibdump -metrics path).
func TestLatencySurvivesReattach(t *testing.T) {
	h := shm.New(1 << 22)
	a, err := ralloc.Format(h)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(a, latOpts())
	if err != nil {
		t.Fatal(err)
	}
	c := s.NewCtx(1)
	for i := 0; i < 10; i++ {
		c.Set([]byte("k"), []byte("v"), 0, 0)
		c.Get([]byte("k"))
	}
	want := s.Latency()
	c.Close()

	a2, err := ralloc.Open(h)
	if err != nil {
		t.Fatal(err)
	}
	if a2.GetRoot(RootLatency) == 0 {
		t.Fatal("RootLatency not set")
	}
	s2, err := Attach(a2)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Latency()
	for class := range got.Classes {
		if got.Classes[class].Total != want.Classes[class].Total {
			t.Fatalf("class %s: reattached total %d != %d",
				LatClassNames[class], got.Classes[class].Total, want.Classes[class].Total)
		}
	}
	if got.Classes[LatGet].Percentile(99) == 0 {
		t.Fatal("reattached get p99 is zero")
	}
}

// A thread that dies between the bucket add and the total add leaves the
// histogram torn; Repair must mend it and report it.
func TestRepairMendsTornHistogram(t *testing.T) {
	s, c := newStore(t, 1<<22, latOpts())
	for i := 0; i < 20; i++ {
		c.Set([]byte("k"), []byte("v"), 0, 0)
	}
	// Tear a histogram the way fpLatRecord would: bucket bumped, total not.
	off := s.latOff(c.latSlot, LatGet)
	s.H.Add64(off+histogram.SharedOffCounts, 1)

	rc := s.NewCtx(99)
	rep, err := s.Repair(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HistogramsRepaired != 1 {
		t.Fatalf("HistogramsRepaired = %d, want 1", rep.HistogramsRepaired)
	}
	g := s.Latency().Classes[LatGet]
	var n uint64
	for _, cnt := range g.Counts {
		n += cnt
	}
	if n != g.Total {
		t.Fatalf("histogram still torn after repair: Σcounts=%d total=%d", n, g.Total)
	}
}
