package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// execBatch runs ops with result slots and a value buffer of the test's
// own, as a session does for its caller.
func execBatch(c *Ctx, ops []BatchOp) []BatchResult {
	res := make([]BatchResult, len(ops))
	c.ExecBatch(ops, res, nil)
	return res
}

// A heterogeneous batch executes in order with per-op results.
func TestExecBatchMixed(t *testing.T) {
	s, c := newStore(t, 1<<22, latOpts())
	res := execBatch(c, []BatchOp{
		{Code: BatchSet, Key: []byte("a"), Value: []byte("1"), Flags: 7},
		{Code: BatchGet, Key: []byte("a")},
		{Code: BatchIncr, Key: []byte("a"), Delta: 4},
		{Code: BatchGet, Key: []byte("miss")},
		{Code: BatchDelete, Key: []byte("a")},
		{Code: BatchGet, Key: []byte("a")},
	})
	if res[0].Err != nil {
		t.Fatalf("set: %v", res[0].Err)
	}
	if res[1].Err != nil || !bytes.Equal(res[1].Value, []byte("1")) || res[1].Flags != 7 {
		t.Fatalf("get after set: %+v", res[1])
	}
	if res[2].Err != nil || res[2].Num != 5 {
		t.Fatalf("incr: %+v", res[2])
	}
	if !errors.Is(res[3].Err, ErrNotFound) {
		t.Fatalf("get miss: %v", res[3].Err)
	}
	if res[4].Err != nil {
		t.Fatalf("delete: %v", res[4].Err)
	}
	if !errors.Is(res[5].Err, ErrNotFound) {
		t.Fatalf("get after delete: %v", res[5].Err)
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchedOps != 6 {
		t.Fatalf("batches=%d batchedOps=%d, want 1/6", st.Batches, st.BatchedOps)
	}
}

// One failing operation must not poison its siblings: errors are per-op.
func TestExecBatchErrorIsolation(t *testing.T) {
	_, c := newStore(t, 1<<22, latOpts())
	if err := c.Set([]byte("have"), []byte("x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	res := execBatch(c, []BatchOp{
		{Code: BatchAdd, Key: []byte("have"), Value: []byte("y")}, // exists
		{Code: BatchSet, Key: []byte("k1"), Value: []byte("v1")},
		{Code: BatchCAS, Key: []byte("k1"), Value: []byte("v2"), CAS: ^uint64(0)}, // mismatch
		{Code: BatchIncr, Key: []byte("k1"), Delta: 1},                            // not numeric
		{Code: BatchSet, Key: []byte("k2"), Value: []byte("v2")},
	})
	if !errors.Is(res[0].Err, ErrExists) {
		t.Fatalf("add-on-existing: %v", res[0].Err)
	}
	if res[1].Err != nil {
		t.Fatalf("sibling set failed: %v", res[1].Err)
	}
	if !errors.Is(res[2].Err, ErrCASMismatch) {
		t.Fatalf("stale cas: %v", res[2].Err)
	}
	if !errors.Is(res[3].Err, ErrNotNumeric) {
		t.Fatalf("incr non-numeric: %v", res[3].Err)
	}
	if res[4].Err != nil {
		t.Fatalf("trailing set failed: %v", res[4].Err)
	}
	// And the successful ops really committed.
	if v, _, _, err := c.Get([]byte("k2")); err != nil || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("k2 = %q, %v", v, err)
	}
}

// A batch runs under a single gate admission: the nested ops reenter at
// depth 2 and the gate count returns to zero once, not per op.
func TestExecBatchSingleAdmission(t *testing.T) {
	s, c := newStore(t, 1<<22, latOpts())
	ops := make([]BatchOp, 16)
	for i := range ops {
		ops[i] = BatchOp{Code: BatchSet, Key: []byte{byte('a' + i)}, Value: []byte("v")}
	}
	execBatch(c, ops)
	ls := s.Latency()
	if n := ls.Classes[LatBatch].Count(); n != 1 {
		t.Fatalf("batch latency samples = %d, want 1 (one sample covers the batch)", n)
	}
	if n := ls.Classes[LatSet].Count(); n != 0 {
		t.Fatalf("set latency samples = %d, want 0 (nested ops must not sample)", n)
	}
	if st := s.Stats(); st.Sets != 16 {
		t.Fatalf("sets = %d, want 16 (counters still count every op)", st.Sets)
	}
}

func TestExecBatchEmpty(t *testing.T) {
	s, c := newStore(t, 1<<22, latOpts())
	if res := execBatch(c, nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	if st := s.Stats(); st.Batches != 0 {
		t.Fatalf("empty batch counted as a dispatch")
	}
}

// A batch's result slots and value buffer are its caller's, lent for the
// call: every slot is overwritten whatever it held, the values lie in the
// buffer that was lent (or, once an append has relocated it, in the one
// returned), a caller that keeps its pair has them untouched by later
// batches, and one that lends the same pair again allocates nothing.
func TestExecBatchOwners(t *testing.T) {
	_, c := newStore(t, 1<<22, latOpts())
	long, short := bytes.Repeat([]byte("L"), 100), []byte("s")
	execBatch(c, []BatchOp{
		{Code: BatchSet, Key: []byte("long"), Value: long, Flags: 1},
		{Code: BatchSet, Key: []byte("short"), Value: short, Flags: 2},
	})
	gets := []BatchOp{{Code: BatchGet, Key: []byte("long")}, {Code: BatchGet, Key: []byte("miss")}, {Code: BatchGet, Key: []byte("short")}}
	check := func(name string, res []BatchResult) {
		t.Helper()
		if len(res) != 3 || !bytes.Equal(res[0].Value, long) || res[0].Flags != 1 ||
			!errors.Is(res[1].Err, ErrNotFound) || res[1].Value != nil ||
			!bytes.Equal(res[2].Value, short) || res[2].Flags != 2 {
			t.Fatalf("%s: %+v", name, res)
		}
	}
	kept := execBatch(c, gets)
	check("kept", kept)

	stale := BatchResult{Value: []byte("stale"), Flags: 9, CAS: 9, Num: 9, Exptime: 9, Err: ErrExists}
	res := []BatchResult{stale, stale, stale}
	lent := make([]byte, 0, 256)
	grown := c.ExecBatch(gets, res, lent)
	check("lent", res)
	if res[0].Num != 0 || res[0].Exptime != 0 || res[1].CAS != 0 {
		t.Fatalf("a slot kept what it held before the batch: %+v", res)
	}
	if len(grown) != len(long)+len(short) || &grown[0] != &lent[:1][0] || &res[0].Value[0] != &grown[0] {
		t.Fatal("values do not lie in the buffer that was lent")
	}
	// Too small a buffer is relocated by append; the values follow it.
	grown = c.ExecBatch(gets, res, make([]byte, 0, 8))
	check("relocated", res)
	if &res[0].Value[0] != &grown[0] {
		t.Fatal("values do not lie in the buffer that was returned")
	}
	// A store-only batch never touches the buffer.
	if got := c.ExecBatch([]BatchOp{{Code: BatchTouch, Key: []byte("long")}}, res[:1], nil); got != nil {
		t.Fatalf("a batch without retrievals grew a value buffer: %d bytes", len(got))
	}
	check("kept, after three later batches", kept)
	if n := testing.AllocsPerRun(100, func() { c.ExecBatch(gets, res, lent) }); n != 0 {
		t.Errorf("a batch into lent buffers allocates %v times", n)
	}
}

// A batch aborted between operations returns what ran and ErrCallAborted
// for the rest — and must not read value offsets an earlier, longer batch
// left in the context's scratch.
func TestExecBatchAbortIgnoresStaleOffsets(t *testing.T) {
	_, c := newStore(t, 1<<22, latOpts())
	execBatch(c, []BatchOp{
		{Code: BatchSet, Key: []byte("long"), Value: bytes.Repeat([]byte("L"), 100)},
		{Code: BatchSet, Key: []byte("short"), Value: []byte("s")},
	})
	execBatch(c, []BatchOp{{Code: BatchGet, Key: []byte("long")}, {Code: BatchGet, Key: []byte("long")}})
	c.AbortCheck = func() bool { return true }
	res := execBatch(c, []BatchOp{{Code: BatchGet, Key: []byte("short")}, {Code: BatchGet, Key: []byte("long")}})
	if res[0].Err != nil || string(res[0].Value) != "s" || !errors.Is(res[1].Err, ErrCallAborted) {
		t.Fatalf("aborted batch: %q %v, %v", res[0].Value, res[0].Err, res[1].Err)
	}
}

// keyPassOps is a batch that mixes every kind of op the key pass feeds:
// keys repeat (a Get after a Set of the same key must see the new value),
// and a 251-byte key sits in the middle. Expiries are absolute, so both
// runs store the same ones whatever the clock reads.
func keyPassOps() []BatchOp {
	const exp = 2_000_000_000
	k := func(s string) []byte { return []byte(s) }
	return []BatchOp{
		{Code: BatchSet, Key: k("a"), Value: k("1"), Flags: 3},
		{Code: BatchGet, Key: k("a")},
		{Code: BatchIncr, Key: k("a"), Delta: 41},
		{Code: BatchGet, Key: k("a")},
		{Code: BatchAppend, Key: k("a"), Value: k("x")},
		{Code: BatchGAT, Key: k("a"), Exptime: exp},
		{Code: BatchSet, Key: k("b"), Value: k("bee")},
		{Code: BatchGet, Key: bytes.Repeat(k("k"), MaxKeyLen+1)},
		{Code: BatchTouch, Key: k("b"), Exptime: exp + 1},
		{Code: BatchDelete, Key: k("b")},
		{Code: BatchGet, Key: k("b")},
		{Code: BatchDelete, Key: k("b")},
		{Code: BatchIncr, Key: k("c"), Delta: 1},
		{Code: BatchSet, Key: k("c"), Value: k("9")},
		{Code: BatchDecr, Key: k("c"), Delta: 4},
		{Code: BatchGAT, Key: k("miss")},
		{Code: BatchGet, Key: k("c")},
	}
}

// storeState renders every live entry of a store, keyed and sorted.
func storeState(c *Ctx) map[string]string {
	m := map[string]string{}
	c.ForEach(func(e *Entry) bool {
		m[string(e.Key)] = fmt.Sprintf("%q flags=%d exp=%d cas=%d", e.Value, e.Flags, e.Exptime, e.CAS)
		return true
	})
	return m
}

// The key pass changes where a batch's keys are captured and hashed, not
// what the batch does: slot for slot, results and the store left behind
// equal those of the same ops run one by one through Do — on a table mid
// expansion (where the pass touches nothing), from a context without a
// reader slot (which reads only under locks) as well, and for a batch of
// one.
func TestExecBatchKeyPassMatchesLoneOps(t *testing.T) {
	for _, tc := range []struct {
		name     string
		expand   bool
		slotless bool
		ops      []BatchOp
	}{
		{"mixed", false, false, keyPassOps()},
		{"mid-expansion", true, false, keyPassOps()},
		{"no-optimistic-reads", false, true, keyPassOps()},
		{"one-op", false, false, keyPassOps()[:1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(batch bool) ([]BatchResult, map[string]string) {
				s, c := newStore(t, 1<<22, Options{HashPower: 6, NumItemLocks: 16})
				if tc.slotless {
					c.releaseReaderSlot()
				}
				for i := 0; i < 300; i++ { // filler, so an expansion has buckets left to move
					if err := c.Set([]byte(fmt.Sprintf("fill-%d", i)), []byte("f"), 0, 0); err != nil {
						t.Fatal(err)
					}
				}
				if tc.expand {
					if err := s.StartExpand(c, 8); err != nil {
						t.Fatal(err)
					}
					if _, err := s.ExpandStep(c, 20); err != nil || !s.Expanding() {
						t.Fatalf("want a table mid expansion: %v", err)
					}
				}
				res := make([]BatchResult, len(tc.ops))
				if batch {
					c.ExecBatch(tc.ops, res, nil)
				} else {
					for i := range tc.ops {
						c.Do(&tc.ops[i], &res[i])
					}
				}
				if tc.expand && !s.Expanding() {
					t.Fatal("the expansion finished under the ops")
				}
				return res, storeState(c)
			}
			got, gotState := run(true)
			want, wantState := run(false)
			for i := range want {
				g, w := got[i], want[i]
				if !bytes.Equal(g.Value, w.Value) || g.Flags != w.Flags || g.CAS != w.CAS ||
					g.Num != w.Num || g.Exptime != w.Exptime || g.Err != w.Err {
					t.Errorf("op %d (code %d): batch %+v, lone %+v", i, tc.ops[i].Code, g, w)
				}
			}
			if len(tc.ops) > 7 && got[7].Err != ErrKeyTooLong {
				t.Errorf("long key: %v, want ErrKeyTooLong", got[7].Err)
			}
			if fmt.Sprint(gotState) != fmt.Sprint(wantState) {
				t.Errorf("store after the batch:\n%v\nafter the lone ops:\n%v", gotState, wantState)
			}
		})
	}
}
