package core

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"plibmc/internal/mono"
	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

func newStore(t testing.TB, heapBytes uint64, opts Options) (*Store, *Ctx) {
	t.Helper()
	h := shm.New(heapBytes)
	a, err := ralloc.Format(h)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.NewCtx(1)
}

// do runs one operation through Ctx.Do, the one way a keyed verb other
// than Get, GetAppend and Set enters the store.
func do(c *Ctx, op BatchOp) BatchResult {
	var r BatchResult
	c.Do(&op, &r)
	return r
}

func TestSetGet(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	if err := c.Set([]byte("hello"), []byte("world"), 7, 0); err != nil {
		t.Fatal(err)
	}
	v, flags, cas, err := c.Get([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "world" || flags != 7 || cas == 0 {
		t.Fatalf("got %q flags=%d cas=%d", v, flags, cas)
	}
	if _, _, _, err := c.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss = %v", err)
	}
}

func TestSetOverwrite(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	k := []byte("k")
	if err := c.Set(k, []byte("first"), 0, 0); err != nil {
		t.Fatal(err)
	}
	_, _, cas1, _ := c.Get(k)
	if err := c.Set(k, []byte("second, longer value"), 3, 0); err != nil {
		t.Fatal(err)
	}
	v, flags, cas2, err := c.Get(k)
	if err != nil || string(v) != "second, longer value" || flags != 3 {
		t.Fatalf("after overwrite: %q %d %v", v, flags, err)
	}
	if cas2 == cas1 {
		t.Fatal("CAS generation must change on overwrite")
	}
}

func TestAddReplace(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	k := []byte("k")
	if err := do(c, BatchOp{Code: BatchReplace, Key: k, Value: []byte("v")}).Err; !errors.Is(err, ErrNotFound) {
		t.Fatalf("replace missing = %v", err)
	}
	if err := do(c, BatchOp{Code: BatchAdd, Key: k, Value: []byte("v1")}).Err; err != nil {
		t.Fatal(err)
	}
	if err := do(c, BatchOp{Code: BatchAdd, Key: k, Value: []byte("v2")}).Err; !errors.Is(err, ErrExists) {
		t.Fatalf("add existing = %v", err)
	}
	if err := do(c, BatchOp{Code: BatchReplace, Key: k, Value: []byte("v3")}).Err; err != nil {
		t.Fatal(err)
	}
	v, _, _, _ := c.Get(k)
	if string(v) != "v3" {
		t.Fatalf("value = %q", v)
	}
}

func TestCAS(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	k := []byte("k")
	if err := do(c, BatchOp{Code: BatchCAS, Key: k, Value: []byte("v"), CAS: 1}).Err; !errors.Is(err, ErrNotFound) {
		t.Fatalf("cas on missing = %v", err)
	}
	c.Set(k, []byte("v1"), 0, 0)
	_, _, cas, _ := c.Get(k)
	if err := do(c, BatchOp{Code: BatchCAS, Key: k, Value: []byte("v2"), CAS: cas + 99}).Err; !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("stale cas = %v", err)
	}
	if err := do(c, BatchOp{Code: BatchCAS, Key: k, Value: []byte("v2"), CAS: cas}).Err; err != nil {
		t.Fatal(err)
	}
	v, _, cas2, _ := c.Get(k)
	if string(v) != "v2" || cas2 == cas {
		t.Fatalf("after cas: %q gen %d->%d", v, cas, cas2)
	}
	st := c.Store().Stats()
	if st.CASMismatch != 1 {
		t.Fatalf("CASMismatch stat = %d", st.CASMismatch)
	}
}

func TestDelete(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	k := []byte("k")
	if err := do(c, BatchOp{Code: BatchDelete, Key: k}).Err; !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing = %v", err)
	}
	c.Set(k, []byte("v"), 0, 0)
	if err := do(c, BatchOp{Code: BatchDelete, Key: k}).Err; err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key still present")
	}
}

func TestIncrDecr(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	k := []byte("n")
	if err := do(c, BatchOp{Code: BatchIncr, Key: k, Delta: 1}).Err; !errors.Is(err, ErrNotFound) {
		t.Fatalf("incr missing = %v", err)
	}
	c.Set(k, []byte("10"), 0, 0)
	if r := do(c, BatchOp{Code: BatchIncr, Key: k, Delta: 5}); r.Err != nil || r.Num != 15 {
		t.Fatalf("incr = %d, %v", r.Num, r.Err)
	}
	// Width change: 15 + 90 = 105 (2 -> 3 digits, item replaced).
	if r := do(c, BatchOp{Code: BatchIncr, Key: k, Delta: 90}); r.Err != nil || r.Num != 105 {
		t.Fatalf("incr across width = %d, %v", r.Num, r.Err)
	}
	got, _, _, _ := c.Get(k)
	if string(got) != "105" {
		t.Fatalf("stored = %q", got)
	}
	if r := do(c, BatchOp{Code: BatchDecr, Key: k, Delta: 5}); r.Err != nil || r.Num != 100 {
		t.Fatalf("decr = %d, %v", r.Num, r.Err)
	}
	// Decrement saturates at zero.
	if r := do(c, BatchOp{Code: BatchDecr, Key: k, Delta: 1000}); r.Err != nil || r.Num != 0 {
		t.Fatalf("saturating decr = %d, %v", r.Num, r.Err)
	}
	got, _, _, _ = c.Get(k)
	if string(got) != "0" {
		t.Fatalf("stored after saturation = %q", got)
	}
	c.Set(k, []byte("not a number"), 0, 0)
	if err := do(c, BatchOp{Code: BatchIncr, Key: k, Delta: 1}).Err; !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("incr non-numeric = %v", err)
	}
	c.Set(k, []byte(""), 0, 0)
	if err := do(c, BatchOp{Code: BatchIncr, Key: k, Delta: 1}).Err; !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("incr empty = %v", err)
	}
}

func TestIncrWraps(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	k := []byte("n")
	c.Set(k, []byte("18446744073709551615"), 0, 0) // 2^64-1
	if r := do(c, BatchOp{Code: BatchIncr, Key: k, Delta: 1}); r.Err != nil || r.Num != 0 {
		t.Fatalf("wrapping incr = %d, %v", r.Num, r.Err)
	}
}

func TestAppendPrepend(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	k := []byte("k")
	if err := do(c, BatchOp{Code: BatchAppend, Key: k, Value: []byte("x")}).Err; !errors.Is(err, ErrNotFound) {
		t.Fatalf("append missing = %v", err)
	}
	c.Set(k, []byte("mid"), 0, 0)
	if err := do(c, BatchOp{Code: BatchAppend, Key: k, Value: []byte("-end")}).Err; err != nil {
		t.Fatal(err)
	}
	if err := do(c, BatchOp{Code: BatchPrepend, Key: k, Value: []byte("start-")}).Err; err != nil {
		t.Fatal(err)
	}
	v, _, _, _ := c.Get(k)
	if string(v) != "start-mid-end" {
		t.Fatalf("value = %q", v)
	}
}

// TestDefaultClock: a store nobody called SetClock on tells unix time
// from the coarse clock — the process anchor's wall clock plus monotonic
// time since. Admission by admission it must track time.Now().Unix() to
// the second and never run backwards, whether a store holds the clock
// ticking or the word falls back to a precise read.
func TestDefaultClock(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	admit := func() int64 {
		c.enterOp()
		defer c.exitOp()
		return c.now()
	}
	last := admit()
	for _, ticking := range []bool{false, true} {
		if ticking {
			mono.Hold()
			defer mono.Release()
		}
		for i := 0; i < 100_000; i++ {
			before := time.Now().Unix()
			now := admit()
			after := time.Now().Unix()
			if now < last {
				t.Fatalf("ticking=%v: store clock stepped backwards: %d after %d", ticking, now, last)
			}
			if now < before-1 || now > after+1 {
				t.Fatalf("ticking=%v: store clock reads %d, wall clock %d..%d", ticking, now, before, after)
			}
			last = now
		}
	}
}

func TestTouchAndExpiry(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	now := int64(1_000_000)
	s.SetClock(func() int64 { return now })

	k := []byte("k")
	if err := do(c, BatchOp{Code: BatchTouch, Key: k, Exptime: 100}).Err; !errors.Is(err, ErrNotFound) {
		t.Fatalf("touch missing = %v", err)
	}
	c.Set(k, []byte("v"), 0, 50) // relative: expires at now+50
	now += 49
	if _, _, _, err := c.Get(k); err != nil {
		t.Fatalf("not yet expired: %v", err)
	}
	now += 2
	if _, _, _, err := c.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatal("expired key still served")
	}
	st := s.Stats()
	if st.Expired != 1 {
		t.Fatalf("Expired stat = %d", st.Expired)
	}

	// Touch extends life.
	c.Set(k, []byte("v"), 0, 50)
	now += 40
	if err := do(c, BatchOp{Code: BatchTouch, Key: k, Exptime: 100}).Err; err != nil {
		t.Fatal(err)
	}
	now += 60
	if _, _, _, err := c.Get(k); err != nil {
		t.Fatalf("touched key should live: %v", err)
	}

	// Absolute expiry (> 30 days).
	c.Set([]byte("abs"), []byte("v"), 0, now+relativeExpiryCutoff+100)
	if _, _, _, err := c.Get([]byte("abs")); err != nil {
		t.Fatalf("absolute-expiry key should live: %v", err)
	}
	// Negative expiry: dead immediately.
	c.Set([]byte("neg"), []byte("v"), 0, -1)
	if _, _, _, err := c.Get([]byte("neg")); !errors.Is(err, ErrNotFound) {
		t.Fatal("negative-expiry key should be dead")
	}
	// Zero: never expires.
	c.Set([]byte("zero"), []byte("v"), 0, 0)
	now += 10 * relativeExpiryCutoff
	if _, _, _, err := c.Get([]byte("zero")); err != nil {
		t.Fatalf("exptime 0 must never expire: %v", err)
	}
}

func TestValidation(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	longKey := bytes.Repeat([]byte("k"), MaxKeyLen+1)
	if err := c.Set(longKey, []byte("v"), 0, 0); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key set = %v", err)
	}
	if _, _, _, err := c.Get(longKey); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key get = %v", err)
	}
	if err := do(c, BatchOp{Code: BatchDelete, Key: longKey}).Err; !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key delete = %v", err)
	}
	big := make([]byte, MaxValueLen+1)
	if err := c.Set([]byte("k"), big, 0, 0); !errors.Is(err, ErrValueTooBig) {
		t.Fatalf("big value = %v", err)
	}
}

func TestFlushAll(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	for i := 0; i < 100; i++ {
		c.Set([]byte(fmt.Sprintf("key-%d", i)), []byte("v"), 0, 0)
	}
	if st := s.Stats(); st.CurrItems != 100 {
		t.Fatalf("CurrItems = %d", st.CurrItems)
	}
	c.FlushAll()
	st := s.Stats()
	if st.CurrItems != 0 || st.Bytes != 0 {
		t.Fatalf("after flush: items=%d bytes=%d", st.CurrItems, st.Bytes)
	}
	if _, _, _, err := c.Get([]byte("key-3")); !errors.Is(err, ErrNotFound) {
		t.Fatal("flushed key still present")
	}
	if st.Flushes != 1 {
		t.Fatalf("Flushes = %d", st.Flushes)
	}
}

func TestStatsCounting(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	c.Set([]byte("a"), []byte("1"), 0, 0)
	c.Set([]byte("b"), []byte("2"), 0, 0)
	c.Get([]byte("a"))
	c.Get([]byte("missing"))
	do(c, BatchOp{Code: BatchDelete, Key: []byte("b")})
	do(c, BatchOp{Code: BatchIncr, Key: []byte("a"), Delta: 1})
	st := s.Stats()
	if st.Sets != 2 || st.Gets != 2 || st.GetHits != 1 || st.GetMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Deletes != 1 || st.DeleteHits != 1 || st.Incrs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CurrItems != 1 || st.TotalItems != 3 { // a, b, and a's incr replacement? (same width: no)
		// Increment of "1"->"2" keeps width, so TotalItems is 2 links + 0.
		if st.TotalItems != 2 {
			t.Fatalf("items: %+v", st)
		}
	}
	if st.Bytes == 0 {
		t.Fatal("Bytes should be nonzero")
	}
}

func TestStatsScatteredAcrossSlots(t *testing.T) {
	s, _ := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16, StatSlots: 8})
	// Contexts with different owners update different slots; the sums must
	// still be coherent.
	for i := uint64(1); i <= 16; i++ {
		c := s.NewCtx(i)
		c.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v"), 0, 0)
		c.Get([]byte(fmt.Sprintf("k%d", i)))
		c.Close()
	}
	st := s.Stats()
	if st.Sets != 16 || st.GetHits != 16 || st.CurrItems != 16 {
		t.Fatalf("scattered stats = %+v", st)
	}
}

func TestManyKeysAndCollisions(t *testing.T) {
	// A tiny table forces long chains: correctness under collisions.
	s, c := newStore(t, 1<<23, Options{HashPower: 4, NumItemLocks: 4, FixedSize: true})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := c.Set([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("val-%06d", i)), uint32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, flags, _, err := c.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if string(v) != fmt.Sprintf("val-%06d", i) || flags != uint32(i) {
			t.Fatalf("key %d: %q flags=%d", i, v, flags)
		}
	}
	// Delete every third, verify the rest intact.
	for i := 0; i < n; i += 3 {
		if err := do(c, BatchOp{Code: BatchDelete, Key: []byte(fmt.Sprintf("key-%06d", i))}).Err; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		_, _, _, err := c.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if i%3 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%3 != 0 && err != nil {
			t.Fatalf("surviving key %d lost: %v", i, err)
		}
	}
	if st := s.Stats(); st.CurrItems != n-(n+2)/3 {
		t.Fatalf("CurrItems = %d", st.CurrItems)
	}
}

func TestGetAppendReuse(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	c.Set([]byte("k"), []byte("value"), 0, 0)
	buf := make([]byte, 0, 64)
	out, _, _, err := c.GetAppend(buf, []byte("k"))
	if err != nil || string(out) != "value" {
		t.Fatalf("GetAppend = %q, %v", out, err)
	}
	out2, _, _, _ := c.GetAppend(out[:0], []byte("k"))
	if string(out2) != "value" {
		t.Fatalf("reused GetAppend = %q", out2)
	}
}

func TestCaptureProtectsAgainstMutation(t *testing.T) {
	// The §3.4 idiom: after the call returns, mutating the caller's
	// buffers must not affect the stored data. (During-call mutation is
	// exercised by the race-stress tests.)
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	key := []byte("mutable-key")
	val := []byte("mutable-val")
	c.Set(key, val, 0, 0)
	key2 := append([]byte(nil), key...)
	val[0] = 'X'
	key[0] = 'X'
	v, _, _, err := c.Get(key2)
	if err != nil || string(v) != "mutable-val" {
		t.Fatalf("stored data affected by client mutation: %q, %v", v, err)
	}
}

// Property: Increment/Decrement agree with unsigned 64-bit arithmetic
// (wrap on increment, floor at zero on decrement) for any stored value
// and delta.
func TestQuickIncrDecrArithmetic(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	k := []byte("n")
	f := func(start, delta uint64, decr bool) bool {
		if err := c.Set(k, []byte(strconv.FormatUint(start, 10)), 0, 0); err != nil {
			return false
		}
		var r BatchResult
		var want uint64
		if decr {
			r = do(c, BatchOp{Code: BatchDecr, Key: k, Delta: delta})
			if delta > start {
				want = 0
			} else {
				want = start - delta
			}
		} else {
			r = do(c, BatchOp{Code: BatchIncr, Key: k, Delta: delta})
			want = start + delta // wraps
		}
		if r.Err != nil || r.Num != want {
			return false
		}
		v, _, _, err := c.Get(k)
		return err == nil && string(v) == strconv.FormatUint(want, 10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: absExpiry implements memcached's three-range semantics.
func TestQuickAbsExpiry(t *testing.T) {
	s, c := newStore(t, 1<<21, Options{HashPower: 8, NumItemLocks: 16})
	now := int64(1_000_000)
	s.SetClock(func() int64 { return now })
	f := func(exp int64) bool {
		abs := c.absExpiry(exp)
		switch {
		case exp == 0:
			return abs == 0
		case exp < 0:
			return abs < now
		case exp <= relativeExpiryCutoff:
			return abs == now+exp
		default:
			return abs == exp
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The operations' allocation counts, pinned: a Set, a Do'd Set, and a
// GetAppend hit into a lent buffer allocate nothing; a Get hit allocates
// its value; a 64-key MGet allocates its result slice and the one buffer
// its values share, grown by append (8 on 64 short values). The bound
// leaves room for the runtime's growth policy, not for a value apiece.
func TestOpAllocs(t *testing.T) {
	_, c := newStore(t, 1<<24, Options{HashPower: 10, NumItemLocks: 64})
	k, v := []byte("key"), []byte("value-value")
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mget-%03d", i))
		if err := c.Set(keys[i], v, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set(k, v, 0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	set := BatchOp{Code: BatchSet, Key: k, Value: v}
	var r BatchResult
	c.MGet(keys) // size the context's batch scratch
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Set", 0, func() { c.Set(k, v, 0, 0) }}, //nolint:errcheck
		{"GetAppend hit, lent buffer", 0, func() { buf, _, _, _ = c.GetAppend(buf[:0], k) }},
		{"Get hit", 1, func() { c.Get(k) }}, //nolint:errcheck
		{"Do Set", 0, func() { c.Do(&set, &r) }},
		{"MGet of 64", 10, func() { c.MGet(keys) }},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n > tc.max {
			t.Errorf("%s: %v allocations, want ≤ %v", tc.name, n, tc.max)
		} else {
			t.Logf("%s: %v allocations", tc.name, n)
		}
	}
}
