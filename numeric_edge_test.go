package plibmc

// Table-driven numeric edge tests run against BOTH stores: the baseline
// server store (internal/server, socket-era memcached) and the
// protected-library store (core.Ctx, driven through a real session, and
// through a 4-shard cluster session).
// The two implementations share memcached's numeric contract — decr
// saturates at zero, incr wraps modulo 2^64, values are 1..20 ASCII
// digits below 2^64 — and this file pins them to the same table so they
// cannot drift apart. The value-size bounds differ by design (a fixed
// MaxValueLen cap for the protected library, the largest slab chunk for
// the baseline) and get their own tests below.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"plibmc/internal/core"
	"plibmc/internal/protocol"
	"plibmc/internal/server"
	"plibmc/memcached"
)

// numStatus is the implementation-neutral outcome of an incr/decr.
type numStatus int

const (
	numOK numStatus = iota
	numNotFound
	numNotNumeric
)

func (s numStatus) String() string {
	return [...]string{"ok", "not_found", "not_numeric"}[s]
}

// numKV abstracts the two stores under test.
type numKV interface {
	set(t *testing.T, key, val string)
	get(t *testing.T, key string) (string, bool)
	incrDecr(key string, delta uint64, decr bool) (uint64, numStatus)
}

type baselineKV struct{ s *server.Store }

func (b baselineKV) set(t *testing.T, key, val string) {
	t.Helper()
	if st := b.s.Set([]byte(key), []byte(val), 0, 0); st != protocol.StatusOK {
		t.Fatalf("baseline set %q=%q: %v", key, val, st)
	}
}

func (b baselineKV) get(t *testing.T, key string) (string, bool) {
	v, _, _, ok := b.s.Get([]byte(key))
	return string(v), ok
}

func (b baselineKV) incrDecr(key string, delta uint64, decr bool) (uint64, numStatus) {
	v, st := b.s.IncrDecr([]byte(key), delta, decr)
	switch st {
	case protocol.StatusOK:
		return v, numOK
	case protocol.StatusKeyNotFound:
		return 0, numNotFound
	default:
		return 0, numNotNumeric
	}
}

type protectedKV struct{ s memcached.KV }

func (p protectedKV) set(t *testing.T, key, val string) {
	t.Helper()
	if err := p.s.Set([]byte(key), []byte(val), 0, 0); err != nil {
		t.Fatalf("protected set %q=%q: %v", key, val, err)
	}
}

func (p protectedKV) get(t *testing.T, key string) (string, bool) {
	v, _, err := p.s.Get([]byte(key))
	if err != nil {
		if !errors.Is(err, memcached.ErrNotFound) {
			t.Fatalf("protected get %q: %v", key, err)
		}
		return "", false
	}
	return string(v), true
}

func (p protectedKV) incrDecr(key string, delta uint64, decr bool) (uint64, numStatus) {
	var v uint64
	var err error
	if decr {
		v, err = p.s.Decrement([]byte(key), delta)
	} else {
		v, err = p.s.Increment([]byte(key), delta)
	}
	switch {
	case err == nil:
		return v, numOK
	case errors.Is(err, memcached.ErrNotFound):
		return 0, numNotFound
	default:
		return 0, numNotNumeric
	}
}

func newProtectedKV(t *testing.T, heapBytes uint64) protectedKV {
	t.Helper()
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: heapBytes, HashPower: 8, NumItemLocks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { book.Shutdown() })
	cp, err := book.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return protectedKV{sess}
}

// TestNumericEdgesBothStores runs one table through both stores.
func TestNumericEdgesBothStores(t *testing.T) {
	cases := []struct {
		name  string
		init  *string // initial value; nil = key absent
		delta uint64
		decr  bool
		want  uint64
		st    numStatus
		after string // expected stored value when st == numOK
	}{
		{name: "incr basic", init: sp("0"), delta: 1, want: 1, after: "1"},
		{name: "decr saturates", init: sp("5"), delta: 10, want: 0, after: "0"},
		{name: "decr exact to zero", init: sp("10"), delta: 10, want: 0, after: "0"},
		{name: "decr from max", init: sp("18446744073709551615"), delta: 1,
			decr: true, want: 18446744073709551614, after: "18446744073709551614"},
		{name: "incr wraps at 2^64", init: sp("18446744073709551615"), delta: 1, want: 0, after: "0"},
		{name: "incr wraps exactly", init: sp("1"), delta: ^uint64(0), want: 0, after: "0"},
		{name: "incr wraps past", init: sp("18446744073709551615"), delta: ^uint64(0),
			want: 18446744073709551614, after: "18446744073709551614"},
		{name: "20 digits at 2^64", init: sp("18446744073709551616"), delta: 1, st: numNotNumeric},
		{name: "20 digits just past", init: sp("18446744073709551625"), delta: 1, st: numNotNumeric},
		{name: "20 nines", init: sp("99999999999999999999"), delta: 1, st: numNotNumeric},
		{name: "21 digits", init: sp("184467440737095516150"), delta: 1, st: numNotNumeric},
		{name: "empty value", init: sp(""), delta: 1, st: numNotNumeric},
		{name: "trailing garbage", init: sp("12a"), delta: 1, st: numNotNumeric},
		{name: "leading space", init: sp(" 1"), delta: 1, st: numNotNumeric},
		{name: "negative", init: sp("-1"), delta: 1, st: numNotNumeric},
		{name: "missing key", init: nil, delta: 1, st: numNotFound},
		{name: "missing key decr", init: nil, delta: 1, decr: true, st: numNotFound},
		{name: "width shrinks", init: sp("007"), delta: 1, want: 8, after: "8"},
		{name: "width grows", init: sp("99"), delta: 1, want: 100, after: "100"},
	}
	// "decr saturates" etc. default decr from the name prefix.
	for i := range cases {
		if len(cases[i].name) >= 4 && cases[i].name[:4] == "decr" {
			cases[i].decr = true
		}
	}

	impls := []struct {
		name string
		kv   numKV
	}{
		{"baseline", baselineKV{server.NewStore(32<<20, 8)}},
		{"protected", newProtectedKV(t, 32<<20)},
		{"cluster", protectedKV{conformanceKVs(t)["cluster-4"]}},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			for i, tc := range cases {
				key := fmt.Sprintf("n%02d", i)
				if tc.init != nil {
					impl.kv.set(t, key, *tc.init)
				}
				v, st := impl.kv.incrDecr(key, tc.delta, tc.decr)
				if st != tc.st || (st == numOK && v != tc.want) {
					t.Errorf("%s: got (%d, %v), want (%d, %v)", tc.name, v, st, tc.want, tc.st)
					continue
				}
				if tc.st == numOK {
					if got, ok := impl.kv.get(t, key); !ok || got != tc.after {
						t.Errorf("%s: stored value = %q, %v; want %q", tc.name, got, ok, tc.after)
					}
				} else if tc.init != nil {
					// A failed incr/decr must leave the value untouched.
					if got, ok := impl.kv.get(t, key); !ok || got != *tc.init {
						t.Errorf("%s: value after failed op = %q, %v; want %q", tc.name, got, ok, *tc.init)
					}
				}
			}
		})
	}
}

func sp(s string) *string { return &s }

// TestAppendBoundsProtected: the protected library bounds values with a
// hard MaxValueLen cap — an append landing exactly at the cap succeeds,
// one byte past it fails with ErrValueTooBig and leaves the old value
// intact.
func TestAppendBoundsProtected(t *testing.T) {
	kv := newProtectedKV(t, 32<<20)
	s := kv.s

	base := bytes.Repeat([]byte("a"), core.MaxValueLen-3)
	if err := s.Set([]byte("cap"), base, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("cap"), []byte("xyz")); err != nil { // exactly at cap
		t.Fatalf("append to exactly MaxValueLen: %v", err)
	}
	v, _, err := s.Get([]byte("cap"))
	if err != nil || len(v) != core.MaxValueLen || !bytes.HasSuffix(v, []byte("xyz")) {
		t.Fatalf("at-cap value: len %d, err %v", len(v), err)
	}
	if err := s.Append([]byte("cap"), []byte("z")); !errors.Is(err, memcached.ErrValueTooBig) {
		t.Fatalf("append past cap: err = %v, want ErrValueTooBig", err)
	}
	if err := s.Prepend([]byte("cap"), []byte("z")); !errors.Is(err, memcached.ErrValueTooBig) {
		t.Fatalf("prepend past cap: err = %v, want ErrValueTooBig", err)
	}
	// The failed pends must not have disturbed the stored value.
	v, _, err = s.Get([]byte("cap"))
	if err != nil || len(v) != core.MaxValueLen {
		t.Fatalf("value after failed pend: len %d, err %v", len(v), err)
	}
	// A direct over-cap Set is rejected the same way.
	if err := s.Set([]byte("cap"), make([]byte, core.MaxValueLen+1), 0, 0); !errors.Is(err, memcached.ErrValueTooBig) {
		t.Fatalf("over-cap set: err = %v, want ErrValueTooBig", err)
	}
}

// TestAppendBoundsBaseline: the baseline store's value bound is the
// largest slab chunk (just under the 1 MiB page). An append whose
// combined value exceeds it fails — as an allocation failure, matching
// original memcached — and the old value survives.
func TestAppendBoundsBaseline(t *testing.T) {
	s := server.NewStore(64<<20, 8)
	old := bytes.Repeat([]byte("a"), 700<<10)
	if st := s.Set([]byte("big"), old, 0, 0); st != protocol.StatusOK {
		t.Fatalf("set 700KB: %v", st)
	}
	// 700KB + 700KB exceeds the largest chunk a 1 MiB slab page can hold.
	if st := s.Append([]byte("big"), bytes.Repeat([]byte("b"), 700<<10)); st != protocol.StatusOutOfMemory {
		t.Fatalf("oversized append: %v, want StatusOutOfMemory", st)
	}
	v, _, _, ok := s.Get([]byte("big"))
	if !ok || !bytes.Equal(v, old) {
		t.Fatalf("old value corrupted by failed append: len %d, ok %v", len(v), ok)
	}
}
