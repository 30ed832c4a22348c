package core

import (
	"bytes"
	"errors"
	"testing"
)

// A heterogeneous batch executes in order with per-op results.
func TestExecBatchMixed(t *testing.T) {
	s, c := newStore(t, 1<<22, latOpts())
	res := c.ExecBatch([]BatchOp{
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
	res := c.ExecBatch([]BatchOp{
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
	c.ExecBatch(ops)
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
	if res := c.ExecBatch(nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	if st := s.Stats(); st.Batches != 0 {
		t.Fatalf("empty batch counted as a dispatch")
	}
}

// The two owners of a batch's buffers: ExecBatch's results are the
// caller's and survive later batches; ExecBatchBorrowed's lie in the
// context and are good until its next batch — same loop, same results.
func TestExecBatchOwners(t *testing.T) {
	_, c := newStore(t, 1<<22, latOpts())
	long, short := bytes.Repeat([]byte("L"), 100), []byte("s")
	c.ExecBatch([]BatchOp{
		{Code: BatchSet, Key: []byte("long"), Value: long, Flags: 1},
		{Code: BatchSet, Key: []byte("short"), Value: short, Flags: 2},
	})
	gets := []BatchOp{{Code: BatchGet, Key: []byte("long")}, {Code: BatchGet, Key: []byte("miss")}, {Code: BatchGet, Key: []byte("short")}}
	check := func(name string, res []BatchResult) {
		t.Helper()
		if len(res) != 3 || !bytes.Equal(res[0].Value, long) || res[0].Flags != 1 ||
			!errors.Is(res[1].Err, ErrNotFound) || !bytes.Equal(res[2].Value, short) || res[2].Flags != 2 {
			t.Fatalf("%s: %+v", name, res)
		}
	}
	kept := c.ExecBatch(gets)
	check("fresh", kept)
	lent := c.ExecBatchBorrowed(gets)
	check("borrowed", lent)
	again := c.ExecBatchBorrowed(gets[2:])
	if len(again) != 1 || !bytes.Equal(again[0].Value, short) {
		t.Fatalf("second borrowed batch: %+v", again)
	}
	if &again[0] != &lent[0] {
		t.Error("a borrowed batch allocated its results afresh")
	}
	check("fresh, after two borrowed batches", kept)
	if n := testing.AllocsPerRun(100, func() { c.ExecBatchBorrowed(gets) }); n != 0 {
		t.Errorf("a warmed borrowed batch allocates %v times", n)
	}
}

// A batch aborted between operations returns what ran and ErrCallAborted
// for the rest — and must not read value offsets an earlier, longer batch
// left in the context's scratch.
func TestExecBatchAbortIgnoresStaleOffsets(t *testing.T) {
	_, c := newStore(t, 1<<22, latOpts())
	c.ExecBatch([]BatchOp{
		{Code: BatchSet, Key: []byte("long"), Value: bytes.Repeat([]byte("L"), 100)},
		{Code: BatchSet, Key: []byte("short"), Value: []byte("s")},
	})
	c.ExecBatch([]BatchOp{{Code: BatchGet, Key: []byte("long")}, {Code: BatchGet, Key: []byte("long")}})
	c.AbortCheck = func() bool { return true }
	res := c.ExecBatch([]BatchOp{{Code: BatchGet, Key: []byte("short")}, {Code: BatchGet, Key: []byte("long")}})
	if res[0].Err != nil || string(res[0].Value) != "s" || !errors.Is(res[1].Err, ErrCallAborted) {
		t.Fatalf("aborted batch: %q %v, %v", res[0].Value, res[0].Err, res[1].Err)
	}
}
