package core

// Regression tests for the mutation-op bugfix sweep: ASCII-numeric
// overflow detection, the decrement statistics counter, and the LRU bump
// on the in-place increment rewrite path.

import (
	"errors"
	"testing"

	"plibmc/internal/ralloc"
)

func TestParseASCIIUintOverflow(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"18446744073709551615", ^uint64(0), true}, // 2^64-1: the largest legal value
		{"18446744073709551616", 0, false},         // 2^64: pre-fix this wrapped to 0
		{"18446744073709551625", 0, false},         // wraps to 9 pre-fix
		{"99999999999999999999", 0, false},         // 20 digits, far past 2^64
		{"184467440737095516150", 0, false},        // 21 digits
		{"", 0, true},                              // vacuous parse; incrDecr rejects len 0 first
		{"12a", 0, false},
	}
	for _, tc := range cases {
		v, ok := parseASCIIUint([]byte(tc.in))
		if ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("parseASCIIUint(%q) = %d, %v; want %d, %v", tc.in, v, ok, tc.want, tc.ok)
		}
	}
}

// TestIncrOverflowValueNotNumeric: incr on a stored 20-digit value ≥ 2^64
// must answer "not numeric" (memcached's CLIENT_ERROR), not silently wrap
// the parse and compute garbage.
func TestIncrOverflowValueNotNumeric(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	if err := c.Set([]byte("big"), []byte("18446744073709551616"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := do(c, BatchOp{Code: BatchIncr, Key: []byte("big"), Delta: 1}).Err; !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("incr on 2^64 value: err = %v, want ErrNotNumeric", err)
	}
	// The value must be untouched by the failed increment.
	v, _, _, err := c.Get([]byte("big"))
	if err != nil || string(v) != "18446744073709551616" {
		t.Fatalf("value after failed incr = %q, %v", v, err)
	}
	// The legal maximum still increments (wrapping, as in memcached).
	if err := c.Set([]byte("max"), []byte("18446744073709551615"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if r := do(c, BatchOp{Code: BatchIncr, Key: []byte("max"), Delta: 1}); r.Err != nil || r.Num != 0 {
		t.Fatalf("incr of 2^64-1 by 1 = %d, %v; want wrap to 0", r.Num, r.Err)
	}
}

// TestDecrFeedsOwnCounter: Decrement must count into Decrs, not fold into
// Incrs (pre-fix both ops fed statIncrs).
func TestDecrFeedsOwnCounter(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	if err := c.Set([]byte("n"), []byte("10"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := do(c, BatchOp{Code: BatchDecr, Key: []byte("n"), Delta: 3}).Err; err != nil {
		t.Fatal(err)
	}
	if err := do(c, BatchOp{Code: BatchIncr, Key: []byte("n"), Delta: 1}).Err; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Incrs != 1 || st.Decrs != 1 {
		t.Fatalf("Incrs = %d, Decrs = %d; want 1, 1", st.Incrs, st.Decrs)
	}
}

// lruHeadIs reports whether the head of the (single) LRU list is the item
// holding key.
func lruHeadIs(s *Store, key string) bool {
	head := ralloc.LoadPptr(s.H, s.lruHeadOff(0))
	return head != 0 && s.keyEqual(head, []byte(key))
}

// TestIncrInPlaceBumpsLRU: the same-width in-place rewrite is a use and
// must move the item to the head of its LRU list once the bump interval
// has elapsed — the same FIFO-eviction bug class the retrieval paths were
// cured of. Pre-fix the rewrite left the item wherever it sat, so hot
// counters were evicted in insertion order.
func TestIncrInPlaceBumpsLRU(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16, NumLRUs: 1})
	now := int64(10_000)
	s.SetClock(func() int64 { return now })

	if err := c.Set([]byte("ctr"), []byte("100"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("newer"), []byte("x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if !lruHeadIs(s, "newer") {
		t.Fatal("setup: most recent Set is not at the LRU head")
	}
	// Past the bump interval, an in-place increment (100 -> 101, same
	// width) must move ctr back to the head.
	now += lruBumpInterval + 1
	if r := do(c, BatchOp{Code: BatchIncr, Key: []byte("ctr"), Delta: 1}); r.Err != nil || r.Num != 101 {
		t.Fatalf("incr = %d, %v", r.Num, r.Err)
	}
	if !lruHeadIs(s, "ctr") {
		t.Fatal("in-place increment did not bump the item to the LRU head")
	}

	// The width-change replacement path must land at the head too (it
	// re-links a fresh item): 999 -> 1000.
	if err := c.Set([]byte("wide"), []byte("999"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("newest"), []byte("x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	now += lruBumpInterval + 1
	if r := do(c, BatchOp{Code: BatchIncr, Key: []byte("wide"), Delta: 1}); r.Err != nil || r.Num != 1000 {
		t.Fatalf("incr = %d, %v", r.Num, r.Err)
	}
	if !lruHeadIs(s, "wide") {
		t.Fatal("width-change increment did not land at the LRU head")
	}
}

// TestIncrDecrExpiredReaps: an expired-but-unreaped item must be reaped
// (counted as an expiry) and answered NOT_FOUND by every mutation op, the
// same contract Delete acquired in the expired-delete fix.
func TestIncrDecrExpiredReaps(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	now := int64(10_000)
	s.SetClock(func() int64 { return now })

	for _, op := range []struct {
		name string
		run  func(key []byte) error
	}{
		{"incr", func(k []byte) error { return do(c, BatchOp{Code: BatchIncr, Key: k, Delta: 1}).Err }},
		{"decr", func(k []byte) error { return do(c, BatchOp{Code: BatchDecr, Key: k, Delta: 1}).Err }},
		{"append", func(k []byte) error { return do(c, BatchOp{Code: BatchAppend, Key: k, Value: []byte("x")}).Err }},
		{"prepend", func(k []byte) error { return do(c, BatchOp{Code: BatchPrepend, Key: k, Value: []byte("x")}).Err }},
	} {
		key := []byte("exp-" + op.name)
		if err := c.Set(key, []byte("123"), 0, 5); err != nil { // relative: expires at now+5
			t.Fatal(err)
		}
		before := s.Stats()
		now += 10 // expired, not yet reaped
		if err := op.run(key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s on expired key: err = %v, want ErrNotFound", op.name, err)
		}
		after := s.Stats()
		if after.CurrItems != before.CurrItems-1 {
			t.Fatalf("%s: corpse not reaped (items %d -> %d)", op.name, before.CurrItems, after.CurrItems)
		}
		if after.Expired != before.Expired+1 {
			t.Fatalf("%s: reap not counted as expiry (%d -> %d)", op.name, before.Expired, after.Expired)
		}
	}
}
