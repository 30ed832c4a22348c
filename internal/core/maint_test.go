package core

import (
	"errors"
	"fmt"
	"testing"

	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

func TestEvictionUnderPressure(t *testing.T) {
	// A small heap with a low watermark: sets keep succeeding because LRU
	// victims are evicted.
	h := shm.New(1 << 21) // 2 MiB
	a, _ := ralloc.Format(h)
	s, err := Create(a, Options{HashPower: 8, NumItemLocks: 16, MemLimit: 1 << 20, FixedSize: true})
	if err != nil {
		t.Fatal(err)
	}
	c := s.NewCtx(1)
	val := make([]byte, 1024)
	for i := 0; i < 5000; i++ {
		if err := c.Set([]byte(fmt.Sprintf("key-%05d", i)), val, 0, 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions under memory pressure")
	}
	if st.CurrItems == 0 || st.CurrItems >= 5000 {
		t.Fatalf("CurrItems = %d", st.CurrItems)
	}
	// Recent keys should be present; ancient ones evicted.
	if _, _, _, err := c.Get([]byte("key-04999")); err != nil {
		t.Fatalf("most recent key evicted: %v", err)
	}
	if _, _, _, err := c.Get([]byte("key-00000")); !errors.Is(err, ErrNotFound) {
		t.Fatal("oldest key survived heavy pressure")
	}
}

func TestMaintainerEvictsToWatermark(t *testing.T) {
	h := shm.New(1 << 22)
	a, _ := ralloc.Format(h)
	s, err := Create(a, Options{HashPower: 8, NumItemLocks: 16, MemLimit: 1 << 21, FixedSize: true})
	if err != nil {
		t.Fatal(err)
	}
	c := s.NewCtx(1)
	val := make([]byte, 2048)
	// Fill until the store's inline enforcement starts evicting: the heap
	// is now at the hard limit.
	for i := 0; s.Stats().Evictions == 0; i++ {
		if err := c.Set([]byte(fmt.Sprintf("key-%05d", i)), val, 0, 0); err != nil {
			t.Fatal(err)
		}
		if i > 100000 {
			t.Fatal("never reached the memory limit")
		}
	}
	if a.LiveBytes() > s.MemLimit() {
		t.Fatalf("inline enforcement failed: LiveBytes %d > limit %d", a.LiveBytes(), s.MemLimit())
	}
	// The bookkeeper cleans down to the watermark, restoring headroom so
	// clients stop paying for inline eviction.
	m := s.NewMaintainer(2)
	r := m.RunOnce()
	if r.Evicted == 0 {
		t.Fatal("maintainer should evict down to the watermark")
	}
	watermark := s.MemLimit() - s.MemLimit()/20
	if a.LiveBytes() > watermark {
		t.Fatalf("LiveBytes %d still above watermark %d", a.LiveBytes(), watermark)
	}
}

func TestSweepExpired(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	now := int64(1000)
	s.SetClock(func() int64 { return now })
	for i := 0; i < 50; i++ {
		exp := int64(0)
		if i%2 == 0 {
			exp = 10 // relative: dies at t=1010
		}
		c.Set([]byte(fmt.Sprintf("key-%d", i)), []byte("v"), 0, exp)
	}
	now = 2000
	m := s.NewMaintainer(2)
	r := m.RunOnce()
	if r.Expired != 25 {
		t.Fatalf("sweep expired %d, want 25", r.Expired)
	}
	if st := s.Stats(); st.CurrItems != 25 {
		t.Fatalf("CurrItems = %d", st.CurrItems)
	}
	// Idempotent.
	if r2 := m.RunOnce(); r2.Expired != 0 {
		t.Fatalf("second sweep expired %d", r2.Expired)
	}
}

func TestResize(t *testing.T) {
	s, c := newStore(t, 1<<23, Options{HashPower: 6, NumItemLocks: 16})
	const n = 1000
	for i := 0; i < n; i++ {
		if err := c.Set([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("v%d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ResizeTo(c, 12); err != nil {
		t.Fatal(err)
	}
	if s.HashPower() != 12 {
		t.Fatalf("HashPower = %d", s.HashPower())
	}
	for i := 0; i < n; i++ {
		v, _, _, err := c.Get([]byte(fmt.Sprintf("key-%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d after resize: %q, %v", i, v, err)
		}
	}
	// Shrinking below the lock stripe is refused.
	if err := s.ResizeTo(c, 2); err == nil {
		t.Fatal("resize below lock stripe should fail")
	}
	if err := s.ResizeTo(c, 31); err == nil {
		t.Fatal("absurd resize should fail")
	}
}

func TestMaintainerAutoResize(t *testing.T) {
	s, c := newStore(t, 1<<23, Options{HashPower: 6, NumItemLocks: 16})
	m := s.NewMaintainer(2)
	for i := 0; i < 200; i++ { // load factor > 1.5 * 64 buckets
		c.Set([]byte(fmt.Sprintf("key-%d", i)), []byte("v"), 0, 0)
	}
	r := m.RunOnce()
	if !r.Resized || s.HashPower() != 7 {
		t.Fatalf("auto-resize: %+v power=%d", r, s.HashPower())
	}
	// FixedSize mode never resizes.
	s2, c2 := newStore(t, 1<<23, Options{HashPower: 6, NumItemLocks: 16, FixedSize: true})
	for i := 0; i < 200; i++ {
		c2.Set([]byte(fmt.Sprintf("key-%d", i)), []byte("v"), 0, 0)
	}
	if r := s2.NewMaintainer(2).RunOnce(); r.Resized {
		t.Fatal("FixedSize store must not resize")
	}
}

func TestAttachSecondHandle(t *testing.T) {
	// Two handles on the same heap (two "processes") see each other's
	// writes immediately.
	h := shm.New(1 << 22)
	a1, _ := ralloc.Format(h)
	s1, err := Create(a1, Options{HashPower: 8, NumItemLocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ralloc.Open(h)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Attach(a2)
	if err != nil {
		t.Fatal(err)
	}
	c1 := s1.NewCtx(1)
	c2 := s2.NewCtx(1 << 21)
	if err := c1.Set([]byte("shared"), []byte("across processes"), 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _, _, err := c2.Get([]byte("shared"))
	if err != nil || string(v) != "across processes" {
		t.Fatalf("second handle sees %q, %v", v, err)
	}
	if err := do(c2, BatchOp{Code: BatchDelete, Key: []byte("shared")}).Err; err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c1.Get([]byte("shared")); !errors.Is(err, ErrNotFound) {
		t.Fatal("first handle should see the delete")
	}
	// Attach on an empty heap fails.
	if _, err := Attach(mustFormat(t, shm.New(1<<21))); err == nil {
		t.Fatal("Attach to storeless heap should fail")
	}
	// Create on an occupied heap fails.
	if _, err := Create(a2, Options{}); err == nil {
		t.Fatal("Create on occupied heap should fail")
	}
}

func mustFormat(t *testing.T, h *shm.Heap) *ralloc.Allocator {
	t.Helper()
	a, err := ralloc.Format(h)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
