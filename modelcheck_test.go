package plibmc

// Model-based history checking: torture drivers that replay recorded
// concurrent workloads — locked mutations, the seqlock Get fast path,
// MGet batches, incr/decr/append/prepend, Touch/GAT, FlushAll — through
// real core.Ctx paths across multiple goroutines and multiple shm views,
// then verify the recorded history is linearizable against the
// sequential reference model (internal/model + internal/linearcheck).
//
// Four drivers:
//   - TestModelCheckMixed: the crash-free mixed workload (the main run;
//     size and seed tunable with -modelcheck.ops / -modelcheck.seed).
//   - TestModelCheckFaults: the same machinery with fault points armed —
//     every round kills a client at a different registered crash site,
//     recovery repairs online, and the history (killed calls recorded as
//     pending, the repair drop contract enabled) must still linearize.
//   - TestModelCheckSeededViolation: mutation-mode self-test. The
//     in-place increment skips its seqlock bracket and tears the value
//     write (core.Ctx.UnsafeIncrSkipSeqlock); the checker must catch the
//     torn read and shrink the history to a minimal witness.
//   - TestModelCheckCrashTear: a known crash-semantics relaxation, kept
//     as a sensitivity proof: a crash between an in-place increment's
//     value write and its CAS-generation bump leaves the new value under
//     the old generation, which the checker's generation-uniqueness
//     pre-pass detects deterministically.
//
// TestModelCheckExpiryHistory replays a clock-stepped sequential history
// through the real session paths so the model's expiry/saturation/wrap
// semantics are pinned against the implementation's.

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
	"plibmc/internal/linearcheck"
	"plibmc/internal/model"
	"plibmc/memcached"
)

var (
	modelcheckOps  = flag.Int("modelcheck.ops", 12000, "op budget for the mixed model-check run")
	modelcheckSeed = flag.Int64("modelcheck.seed", 7, "PRNG seed for the model-check workloads")
)

// The torture clock is frozen far enough in the future that absolute
// expiry timestamps (> the 30-day relative cutoff) are available.
const (
	mcFrozenNow = int64(10_000_000)
	mcFarExpiry = int64(20_000_000)
)

// mcResult maps a session error to a model result; ok=false means the
// call crashed (killed process / recovered panic) and its effect is
// unknown — the recorder leaves such ops pending.
func mcResult(err error) (model.Res, bool) {
	switch {
	case err == nil:
		return model.ResOK, true
	case errors.Is(err, memcached.ErrNotFound):
		return model.ResNotFound, true
	case errors.Is(err, memcached.ErrExists):
		return model.ResExists, true
	case errors.Is(err, memcached.ErrCASMismatch):
		return model.ResCASMismatch, true
	case errors.Is(err, memcached.ErrNotNumeric):
		return model.ResNotNumeric, true
	case errors.Is(err, memcached.ErrValueTooBig):
		return model.ResTooBig, true
	case errors.Is(err, memcached.ErrNoSpace):
		return model.ResNoSpace, true
	}
	return model.ResUnknown, false
}

// mcWorker drives one session and records every call on its tape.
type mcWorker struct {
	t       *testing.T
	s       memcached.KV
	rec     *linearcheck.Recorder
	tape    *linearcheck.Tape
	rng     *rand.Rand
	id      int
	seq     int
	now     int64
	faulty  bool // crashes expected: record them as pending, don't fail
	lastCAS map[string]uint64
}

func newMCWorker(t *testing.T, s memcached.KV, rec *linearcheck.Recorder, tapeIdx int, seed int64, faulty bool) *mcWorker {
	if ss, ok := s.(*memcached.Session); ok {
		ss.Ctx().Store().SetClock(func() int64 { return mcFrozenNow })
	}
	// Cluster sessions span several stores; the drivers freeze each
	// shard's clock directly before building workers.
	return &mcWorker{
		t: t, s: s, rec: rec, tape: rec.Tape(tapeIdx),
		rng: rand.New(rand.NewSource(seed + int64(tapeIdx)*9973)),
		id:  tapeIdx, now: mcFrozenNow, faulty: faulty,
		lastCAS: make(map[string]uint64),
	}
}

// finish stamps the op's return and result; a crashed call is left
// pending (its effect window extends past the repair that follows) and
// the worker reports itself dead.
func (w *mcWorker) finish(i int, err error, fill func(*model.Op)) bool {
	res, completed := mcResult(err)
	if !completed {
		if !w.faulty {
			w.t.Errorf("worker %d: unexpected crash error: %v", w.id, err)
		}
		return false
	}
	w.tape.End(i, func(op *model.Op) {
		op.Res = res
		if res == model.ResOK && fill != nil {
			fill(op)
		}
	})
	return true
}

func (w *mcWorker) val() []byte {
	w.seq++
	return []byte(fmt.Sprintf("w%d.%d", w.id, w.seq))
}

func (w *mcWorker) exp() int64 {
	if w.rng.Intn(10) < 3 {
		return mcFarExpiry
	}
	return 0
}

func (w *mcWorker) doGets(key string) bool {
	i := w.tape.Begin(model.Op{Kind: model.Get, Key: key, Now: w.now})
	v, f, cas, err := w.s.Gets([]byte(key))
	if err == nil {
		w.lastCAS[key] = cas
	}
	return w.finish(i, err, func(op *model.Op) {
		op.RVal = append([]byte(nil), v...)
		op.RFlags = f
		op.RCAS = cas
	})
}

// doGet records a read without observing the CAS generation (RCAS 0 =
// unbound); the mutation-mode self-test uses it to force detection
// through the search rather than the generation-uniqueness pre-pass.
func (w *mcWorker) doGet(key string) bool {
	i := w.tape.Begin(model.Op{Kind: model.Get, Key: key, Now: w.now})
	v, f, err := w.s.Get([]byte(key))
	return w.finish(i, err, func(op *model.Op) {
		op.RVal = append([]byte(nil), v...)
		op.RFlags = f
	})
}

func (w *mcWorker) doMGet(keys []string) bool {
	kbs := make([][]byte, len(keys))
	for i, k := range keys {
		kbs[i] = []byte(k)
	}
	inv := w.rec.Now()
	res, err := w.s.MGet(kbs)
	ret := w.rec.Now()
	_, completed := mcResult(err)
	for idx, k := range keys {
		op := model.Op{Kind: model.Get, Key: k, Invoke: inv, Now: w.now}
		if completed {
			op.Return = ret
			r := res[idx]
			if r.Found {
				op.Res = model.ResOK
				op.RVal = append([]byte(nil), r.Value...)
				op.RFlags = r.Flags
				op.RCAS = r.CAS
				w.lastCAS[k] = r.CAS
			} else {
				op.Res = model.ResNotFound
			}
		} // else: Return stays 0 -> pending
		w.tape.Record(op)
	}
	if !completed && !w.faulty {
		w.t.Errorf("worker %d: unexpected crash error: %v", w.id, err)
	}
	return completed
}

// doBatch runs a mixed ExecBatch — one gate crossing carrying several
// heterogeneous ops — and records every op under the batch's shared
// invoke/return window, exactly like doMGet. A crashed crossing leaves
// every op pending: the prefix before the crash committed, the suffix
// never ran, and the recorder cannot know where the cut fell.
func (w *mcWorker) doBatch(keys []string) bool {
	n := 2 + w.rng.Intn(4)
	bops := make([]core.BatchOp, n)
	mops := make([]model.Op, n)
	for i := range bops {
		key := w.pickGeneral(keys)
		switch w.rng.Intn(8) {
		case 0, 1:
			v := w.val()
			exp := w.exp()
			bops[i] = core.BatchOp{Code: core.BatchSet, Key: []byte(key), Value: v, Flags: uint32(w.id), Exptime: exp}
			mops[i] = model.Op{Kind: model.Set, Key: key, Val: v, Flags: uint32(w.id), Exp: exp}
		case 2:
			v := w.val()
			bops[i] = core.BatchOp{Code: core.BatchAdd, Key: []byte(key), Value: v, Flags: uint32(w.id)}
			mops[i] = model.Op{Kind: model.Add, Key: key, Val: v, Flags: uint32(w.id)}
		case 3:
			bops[i] = core.BatchOp{Code: core.BatchDelete, Key: []byte(key)}
			mops[i] = model.Op{Kind: model.Delete, Key: key}
		case 4:
			ck := mcCtrKeys[w.rng.Intn(len(mcCtrKeys))]
			d := uint64(1 + w.rng.Intn(3))
			bops[i] = core.BatchOp{Code: core.BatchIncr, Key: []byte(ck), Delta: d}
			mops[i] = model.Op{Kind: model.Incr, Key: ck, Delta: d}
		case 5:
			bops[i] = core.BatchOp{Code: core.BatchTouch, Key: []byte(key), Exptime: mcFarExpiry}
			mops[i] = model.Op{Kind: model.Touch, Key: key, Exp: mcFarExpiry}
		default:
			bops[i] = core.BatchOp{Code: core.BatchGet, Key: []byte(key)}
			mops[i] = model.Op{Kind: model.Get, Key: key}
		}
		mops[i].Now = w.now
	}
	inv := w.rec.Now()
	res, err := w.s.ExecBatch(bops)
	ret := w.rec.Now()
	_, completed := mcResult(err)
	for i := range mops {
		op := mops[i]
		op.Invoke = inv
		if completed {
			r, ok := mcResult(res[i].Err)
			if !ok {
				// Per-op errors are store verdicts; a crash error can only
				// arrive on the crossing itself.
				w.t.Errorf("worker %d: batch op %d carries a crash error: %v", w.id, i, res[i].Err)
			}
			op.Return = ret
			op.Res = r
			if r == model.ResOK {
				switch op.Kind {
				case model.Get:
					op.RVal = append([]byte(nil), res[i].Value...)
					op.RFlags = res[i].Flags
					op.RCAS = res[i].CAS
					w.lastCAS[op.Key] = res[i].CAS
				case model.Incr, model.Decr:
					op.RNum = res[i].Num
				}
			}
		} // else: Return stays 0 -> pending
		w.tape.Record(op)
	}
	if !completed && !w.faulty {
		w.t.Errorf("worker %d: unexpected batch crash: %v", w.id, err)
	}
	return completed
}

func (w *mcWorker) doStore(kind model.Kind, key string, val []byte, exp int64) bool {
	op := model.Op{Kind: kind, Key: key, Val: val, Flags: uint32(w.id), Exp: exp, Now: w.now}
	var casArg uint64
	if kind == model.CAS {
		if c, ok := w.lastCAS[key]; ok && w.rng.Intn(10) < 8 {
			casArg = c
		} else {
			casArg = 1<<60 + uint64(w.seq) // garbage: expect a mismatch
		}
		op.CASArg = casArg
	}
	i := w.tape.Begin(op)
	var err error
	switch kind {
	case model.Set:
		err = w.s.Set([]byte(key), val, uint32(w.id), exp)
	case model.Add:
		err = w.s.Add([]byte(key), val, uint32(w.id), exp)
	case model.Replace:
		err = w.s.Replace([]byte(key), val, uint32(w.id), exp)
	case model.CAS:
		err = w.s.CAS([]byte(key), val, uint32(w.id), exp, casArg)
	}
	return w.finish(i, err, nil)
}

func (w *mcWorker) doDelete(key string) bool {
	i := w.tape.Begin(model.Op{Kind: model.Delete, Key: key, Now: w.now})
	return w.finish(i, w.s.Delete([]byte(key)), nil)
}

func (w *mcWorker) doIncrDecr(key string, delta uint64, decr bool) bool {
	kind := model.Incr
	if decr {
		kind = model.Decr
	}
	i := w.tape.Begin(model.Op{Kind: kind, Key: key, Delta: delta, Now: w.now})
	var v uint64
	var err error
	if decr {
		v, err = w.s.Decrement([]byte(key), delta)
	} else {
		v, err = w.s.Increment([]byte(key), delta)
	}
	return w.finish(i, err, func(op *model.Op) { op.RNum = v })
}

func (w *mcWorker) doPend(key string, data []byte, prepend bool) bool {
	kind := model.Append
	if prepend {
		kind = model.Prepend
	}
	i := w.tape.Begin(model.Op{Kind: kind, Key: key, Val: data, Now: w.now})
	var err error
	if prepend {
		err = w.s.Prepend([]byte(key), data)
	} else {
		err = w.s.Append([]byte(key), data)
	}
	return w.finish(i, err, nil)
}

func (w *mcWorker) doTouch(key string, exp int64) bool {
	i := w.tape.Begin(model.Op{Kind: model.Touch, Key: key, Exp: exp, Now: w.now})
	return w.finish(i, w.s.Touch([]byte(key), exp), nil)
}

func (w *mcWorker) doGAT(key string, exp int64) bool {
	i := w.tape.Begin(model.Op{Kind: model.GAT, Key: key, Exp: exp, Now: w.now})
	v, f, err := w.s.GetAndTouch([]byte(key), exp)
	return w.finish(i, err, func(op *model.Op) {
		op.RVal = append([]byte(nil), v...)
		op.RFlags = f
	})
}

func (w *mcWorker) doFlush() bool {
	i := w.tape.Begin(model.Op{Kind: model.Flush, Now: w.now})
	return w.finish(i, w.s.FlushAll(), nil)
}

func mcGeneralKeys() []string {
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	return keys
}

var mcCtrKeys = []string{"c0", "c1", "c2", "c3"}

func (w *mcWorker) pickGeneral(keys []string) string { return keys[w.rng.Intn(len(keys))] }

// step runs one mixed op. allowFlush gates FlushAll (excluded for
// doomed clients: a killed flush would put a pending op into every
// key's subhistory). Returns false once the worker's process has died.
func (w *mcWorker) step(keys []string, allowFlush bool) bool {
	if w.rng.Intn(10) < 3 { // counter workload
		key := mcCtrKeys[w.rng.Intn(len(mcCtrKeys))]
		switch p := w.rng.Intn(100); {
		case p < 35:
			delta := uint64(1 + w.rng.Intn(3))
			switch w.rng.Intn(25) {
			case 0:
				delta = 10_000 // force a width-change rewrite
			case 1:
				delta = ^uint64(0) // wraps modulo 2^64
			}
			return w.doIncrDecr(key, delta, false)
		case p < 60:
			delta := uint64(1 + w.rng.Intn(3))
			if w.rng.Intn(8) == 0 {
				delta = 1 << 40 // saturates at zero
			}
			return w.doIncrDecr(key, delta, true)
		case p < 80:
			return w.doGets(key)
		default:
			return w.doStore(model.Set, key, []byte(fmt.Sprintf("%d", w.rng.Intn(100000))), 0)
		}
	}
	key := w.pickGeneral(keys)
	switch p := w.rng.Intn(100); {
	case p < 30:
		return w.doGets(key)
	case p < 40:
		n := 2 + w.rng.Intn(3)
		batch := make([]string, n)
		for i := range batch {
			batch[i] = w.pickGeneral(keys)
		}
		return w.doMGet(batch)
	case p < 58:
		return w.doStore(model.Set, key, w.val(), w.exp())
	case p < 63:
		return w.doStore(model.Add, key, w.val(), w.exp())
	case p < 68:
		return w.doStore(model.Replace, key, w.val(), w.exp())
	case p < 78:
		return w.doStore(model.CAS, key, w.val(), w.exp())
	case p < 84:
		return w.doDelete(key)
	case p < 88:
		return w.doPend(key, append([]byte("+"), w.val()...), false)
	case p < 92:
		return w.doPend(key, append([]byte("-"), w.val()...), true)
	case p < 95:
		return w.doTouch(key, mcFarExpiry)
	case p < 99:
		return w.doGAT(key, mcFarExpiry)
	default:
		if allowFlush && w.rng.Intn(8) == 0 {
			return w.doFlush()
		}
		return w.doGets(key)
	}
}

// readStep runs one read-only op (survivors during an armed crash
// window, where a mutation could consume the one-shot fault handler
// meant for the doomed client).
func (w *mcWorker) readStep(keys []string) bool {
	if w.rng.Intn(4) == 0 {
		n := 2 + w.rng.Intn(3)
		batch := make([]string, n)
		for i := range batch {
			batch[i] = w.pickGeneral(keys)
		}
		return w.doMGet(batch)
	}
	if w.rng.Intn(3) == 0 {
		return w.doGets(mcCtrKeys[w.rng.Intn(len(mcCtrKeys))])
	}
	return w.doGets(w.pickGeneral(keys))
}

// mcCheck runs the checker and fails the test on any violation or
// undecided key, logging the sizes the experiment log records.
func mcCheck(t *testing.T, hist []model.Op, m *model.Model) linearcheck.Result {
	t.Helper()
	start := time.Now()
	res := linearcheck.Check(hist, m, linearcheck.Options{})
	wall := time.Since(start)
	if !res.Ok {
		t.Fatalf("history not linearizable: %s", res.Violation)
	}
	if len(res.Undecided) > 0 {
		t.Fatalf("checker exceeded its state budget on keys %v", res.Undecided)
	}
	t.Logf("checked %d ops over %d keys (largest subhistory %d ops): %d model states, %v",
		res.Ops, res.Keys, res.MaxKeyOps, res.StatesExplored, wall)
	return res
}

// TestModelCheckMixed: the main crash-free torture run. 12 workers in 3
// client processes (3 shm views) run the full mixed workload; the
// merged history must linearize with zero violations.
func TestModelCheckMixed(t *testing.T) {
	opBudget := *modelcheckOps
	if testing.Short() {
		opBudget = 4000
	}
	const nProcs, perProc = 3, 4
	workers := nProcs * perProc

	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 64 << 20, HashPower: 8, NumItemLocks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	book.Store().SetClock(func() int64 { return mcFrozenNow })

	rec := linearcheck.NewRecorder(workers)
	var ws []*mcWorker
	for p := 0; p < nProcs; p++ {
		cp, err := book.NewClientProcess(1000 + p)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < perProc; s++ {
			sess, err := cp.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, newMCWorker(t, sess, rec, len(ws), *modelcheckSeed, false))
		}
	}

	keys := mcGeneralKeys()
	perWorker := opBudget / workers
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *mcWorker) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if !w.step(keys, true) {
					return
				}
			}
		}(w)
	}
	wg.Wait()

	hist := rec.History()
	if len(hist) < opBudget {
		t.Fatalf("recorded only %d ops, want >= %d", len(hist), opBudget)
	}
	mcCheck(t, hist, &model.Model{MaxValueLen: core.MaxValueLen})
}

// TestModelCheckSharded: the mixed torture run against a 4-shard cluster.
// Every worker drives a ClusterSession, so each op crosses the placement
// ring before reaching a store, and MGet/ExecBatch windows span several
// per-shard crossings. The merged history must still linearize: the ring
// is deterministic and each key lives on exactly one shard, so per-key
// histories are exactly as strict as the single-store runs.
//
// FlushAll is excluded (allowFlush=false): a cluster flush sweeps shards
// sequentially, and a pair of writes to different shards straddling the
// sweep is a real, documented relaxation — not a routing bug.
func TestModelCheckSharded(t *testing.T) {
	opBudget := *modelcheckOps
	if testing.Short() {
		opBudget = 3000
	}
	const nShards, nProcs, perProc = 4, 2, 4
	workers := nProcs * perProc

	c, err := memcached.CreateCluster(memcached.ClusterConfig{
		Shards: nShards,
		Store: memcached.Config{
			HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for i := 0; i < nShards; i++ {
		c.Shard(i).Store().SetClock(func() int64 { return mcFrozenNow })
	}

	rec := linearcheck.NewRecorder(workers)
	var ws []*mcWorker
	for p := 0; p < nProcs; p++ {
		cc, err := c.NewClientProcess(1000 + p)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < perProc; s++ {
			sess, err := cc.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, newMCWorker(t, sess, rec, len(ws), *modelcheckSeed, false))
		}
	}

	keys := mcGeneralKeys()
	perWorker := opBudget / workers
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *mcWorker) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ok := w.step(keys, false)
				if ok && w.rng.Intn(4) == 0 {
					ok = w.doBatch(keys) // sharded batch: split + reassembled
				}
				if !ok {
					w.t.Errorf("worker %d died", w.id)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Every shard must have taken real traffic, or the run proves nothing
	// about cross-shard windows.
	for i := 0; i < nShards; i++ {
		st := c.Shard(i).Stats()
		if st.Gets+st.Sets == 0 {
			t.Fatalf("shard %d saw no traffic; ring routing is degenerate", i)
		}
	}

	hist := rec.History()
	if len(hist) < opBudget {
		t.Fatalf("recorded only %d ops, want >= %d", len(hist), opBudget)
	}
	mcCheck(t, hist, &model.Model{MaxValueLen: core.MaxValueLen})
}

// TestModelCheckFaults: crash rounds. Each round arms one registered
// crash site on the client mutation paths, lets a doomed client step on
// it (killing its process mid-call), waits for online recovery, then
// runs a full-mix phase. Killed calls are recorded as pending ops and
// the model admits the repair drop contract; everything else must
// linearize exactly.
func TestModelCheckFaults(t *testing.T) {
	points := []string{
		"ops.store.after_alloc",
		"ops.store.locked",
		"ops.store.mid_swap",
		"ops.store.after_link",
		"lru.link.before_lru",
		"lru.unlink.before_lru",
	}
	// ops.incr.mid_rewrite is deliberately absent: a crash inside the
	// seqlock write section tears value-vs-CAS-generation, a known
	// relaxation pinned by TestModelCheckCrashTear below.
	if testing.Short() {
		points = points[:3]
	}
	defer faultpoint.DisarmAll()

	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 64 << 20, HashPower: 8, NumItemLocks: 16,
		CallTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	book.Store().SetClock(func() int64 { return mcFrozenNow })

	const nSurv = 8
	rec := linearcheck.NewRecorder(nSurv + 2*len(points))
	var survivors []*mcWorker
	for p := 0; p < 2; p++ {
		cp, err := book.NewClientProcess(1000 + p)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < nSurv/2; s++ {
			sess, err := cp.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			survivors = append(survivors, newMCWorker(t, sess, rec, len(survivors), *modelcheckSeed, true))
		}
	}
	keys := mcGeneralKeys()

	mixPhase := func(steps int) {
		var wg sync.WaitGroup
		for _, w := range survivors {
			wg.Add(1)
			go func(w *mcWorker) {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					if !w.step(keys, false) {
						w.t.Errorf("survivor %d died", w.id)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	mixPhase(200) // populate

	for ri, point := range points {
		doomedProc, err := book.NewClientProcess(3000 + ri)
		if err != nil {
			t.Fatal(err)
		}
		var doomed []*mcWorker
		for j := 0; j < 2; j++ {
			sess, err := doomedProc.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			doomed = append(doomed, newMCWorker(t, sess, rec, nSurv+2*ri+j, *modelcheckSeed, true))
		}

		var fired atomic.Bool
		if err := faultpoint.Arm(point, func() {
			fired.Store(true)
			doomedProc.Kill()
			panic("modelcheck: injected crash at " + point)
		}); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, w := range survivors {
			wg.Add(1)
			go func(w *mcWorker) {
				defer wg.Done()
				for i := 0; i < 400; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if !w.readStep(keys) {
						w.t.Errorf("survivor %d crashed on a read", w.id)
						return
					}
				}
			}(w)
		}
		for _, w := range doomed {
			wg.Add(1)
			go func(w *mcWorker) {
				defer wg.Done()
				for w.step(keys, false) {
				}
			}(w)
		}

		deadline := time.Now().Add(10 * time.Second)
		for !fired.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: workload never reached %s", ri, point)
			}
			time.Sleep(time.Millisecond)
		}
		for {
			if book.Library().Poisoned() {
				t.Fatalf("round %d: library poisoned after crash at %s", ri, point)
			}
			if m := book.Library().Metrics(); int(m.Recoveries) >= ri+1 && !book.Library().Recovering() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no recovery after crash at %s", ri, point)
			}
			time.Sleep(time.Millisecond)
		}
		close(stop)
		wg.Wait()
		faultpoint.Disarm(point)

		mixPhase(200) // full mix against the repaired store
	}

	if _, err := book.Allocator().Check(); err != nil {
		t.Fatalf("heap fsck after fault rounds: %v", err)
	}
	hist := rec.History()
	if min := 10_000; !testing.Short() && len(hist) < min {
		t.Fatalf("recorded only %d ops, want >= %d", len(hist), min)
	}
	pending := 0
	for i := range hist {
		if hist[i].Pending {
			pending++
		}
	}
	t.Logf("fault history: %d ops, %d pending (killed mid-call)", len(hist), pending)
	mcCheck(t, hist, &model.Model{MaxValueLen: core.MaxValueLen, CrashMayDrop: true})
}

// TestModelCheckBatched: batched histories. Every doBatch is one gate
// crossing carrying 2–5 heterogeneous ops that share an invoke/return
// window; batches interleave with ordinary single-op traffic from the
// same workers. One crash round arms ops.batch.mid_dispatch and kills a
// doomed client between two ops of its batch — the committed prefix and
// never-run suffix are both recorded pending, and the merged history
// must still linearize under the repair drop contract.
func TestModelCheckBatched(t *testing.T) {
	defer faultpoint.DisarmAll()
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 64 << 20, HashPower: 8, NumItemLocks: 16,
		CallTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	book.Store().SetClock(func() int64 { return mcFrozenNow })

	const nSurv = 6
	rec := linearcheck.NewRecorder(nSurv + 2)
	var survivors []*mcWorker
	for p := 0; p < 2; p++ {
		cp, err := book.NewClientProcess(1000 + p)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < nSurv/2; s++ {
			sess, err := cp.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			survivors = append(survivors, newMCWorker(t, sess, rec, len(survivors), *modelcheckSeed, true))
		}
	}
	keys := mcGeneralKeys()

	// Half batches, half ordinary ops: batched and single-op windows must
	// linearize against each other, not just among themselves.
	batchPhase := func(steps int) {
		var wg sync.WaitGroup
		for _, w := range survivors {
			wg.Add(1)
			go func(w *mcWorker) {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					ok := w.step(keys, false)
					if w.rng.Intn(2) == 0 {
						ok = w.doBatch(keys)
					}
					if !ok {
						w.t.Errorf("survivor %d died", w.id)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	batchPhase(120) // populate: batches and singles against a live store

	// Crash round: doomed clients spin batches until one steps on the
	// mid-dispatch mine.
	doomedProc, err := book.NewClientProcess(3000)
	if err != nil {
		t.Fatal(err)
	}
	var doomed []*mcWorker
	for j := 0; j < 2; j++ {
		sess, err := doomedProc.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		doomed = append(doomed, newMCWorker(t, sess, rec, nSurv+j, *modelcheckSeed, true))
	}
	var fired atomic.Bool
	if err := faultpoint.Arm("ops.batch.mid_dispatch", func() {
		fired.Store(true)
		doomedProc.Kill()
		panic("modelcheck: injected crash at ops.batch.mid_dispatch")
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range survivors {
		wg.Add(1)
		go func(w *mcWorker) {
			defer wg.Done()
			// Single gets only while the point is armed: a survivor batch
			// (even MGet) would consume the one-shot handler meant for the
			// doomed client.
			for i := 0; i < 400; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if !w.doGets(w.pickGeneral(keys)) {
					w.t.Errorf("survivor %d crashed on a read", w.id)
					return
				}
			}
		}(w)
	}
	for _, w := range doomed {
		wg.Add(1)
		go func(w *mcWorker) {
			defer wg.Done()
			for w.doBatch(keys) {
			}
		}(w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !fired.Load() {
		if time.Now().After(deadline) {
			t.Fatal("doomed batches never reached ops.batch.mid_dispatch")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		if book.Library().Poisoned() {
			t.Fatal("library poisoned after mid-batch crash")
		}
		if m := book.Library().Metrics(); m.Recoveries >= 1 && !book.Library().Recovering() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no recovery after mid-batch crash")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	faultpoint.Disarm("ops.batch.mid_dispatch")

	batchPhase(120) // full batched mix against the repaired store

	if _, err := book.Allocator().Check(); err != nil {
		t.Fatalf("heap fsck after mid-batch crash: %v", err)
	}
	hist := rec.History()
	pending := 0
	for i := range hist {
		if hist[i].Pending {
			pending++
		}
	}
	if pending == 0 {
		t.Fatal("mid-batch crash left no pending ops in the history")
	}
	t.Logf("batched history: %d ops, %d pending (killed mid-batch)", len(hist), pending)
	mcCheck(t, hist, &model.Model{MaxValueLen: core.MaxValueLen, CrashMayDrop: true})
}

// TestModelCheckSeededViolation: the self-test the harness demands. The
// writer's in-place increment runs with UnsafeIncrSkipSeqlock — no
// seqlock bracket, value written in two halves around a yield — while
// readers run the ordinary optimistic Get fast path from a different
// shm view. The checker must flag the resulting torn reads and shrink
// the history to a minimal witness. Readers record no CAS generations,
// so detection must come from the Wing&Gong search, not the cheap
// generation-uniqueness pre-pass.
func TestModelCheckSeededViolation(t *testing.T) {
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	book.Store().SetClock(func() int64 { return mcFrozenNow })

	wp, err := book.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	wsess, err := wp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	wsess.Ctx().UnsafeIncrSkipSeqlock = true
	rp, err := book.NewClientProcess(1002) // readers: separate shm view
	if err != nil {
		t.Fatal(err)
	}
	const nReaders = 3
	var rsess []*memcached.Session
	for i := 0; i < nReaders; i++ {
		s, err := rp.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		rsess = append(rsess, s)
	}

	const key = "ctr"
	for round := 0; round < 50; round++ {
		rec := linearcheck.NewRecorder(1 + nReaders)
		writer := newMCWorker(t, wsess, rec, 0, *modelcheckSeed, false)
		if !writer.doStore(model.Set, key, []byte("10000000"), 0) {
			t.Fatal("seed set failed")
		}
		// Every reader is built before any starts: newMCWorker sets the
		// store clock, a plain field that no running operation may race.
		readers := make([]*mcWorker, nReaders)
		for i := range readers {
			readers[i] = newMCWorker(t, rsess[i], rec, 1+i, *modelcheckSeed+int64(round), false)
		}
		var wg sync.WaitGroup
		done := make(chan struct{})
		for _, r := range readers {
			wg.Add(1)
			go func(r *mcWorker) {
				defer wg.Done()
				// Bounded: an unbounded spin makes the single-key
				// subhistory (and the checker's memo keys, which carry a
				// bitset of it) arbitrarily large.
				for i := 0; i < 1500; i++ {
					select {
					case <-done:
						return
					default:
					}
					r.doGet(key) // no CAS observation: force the search path
					// Yield so the reads spread across the writer's
					// increments: a reader that spends its whole budget
					// before the writer gets a CPU leaves the torn read far
					// from any earlier one, and its witness cannot shrink.
					runtime.Gosched()
				}
			}(r)
		}
		// +5000 each step: every other increment carries into the upper
		// half of the 8-digit value, so a torn read mixes the halves.
		for i := 0; i < 400; i++ {
			if !writer.doIncrDecr(key, 5000, false) {
				t.Fatal("incr failed")
			}
		}
		close(done)
		wg.Wait()

		hist := rec.History()
		res := linearcheck.Check(hist, &model.Model{MaxValueLen: core.MaxValueLen},
			linearcheck.Options{MaxStates: 1 << 20})
		if res.Ok {
			continue // no torn read surfaced this round; rerun
		}
		if len(res.Undecided) > 0 {
			t.Fatalf("checker ran out of budget on the seeded round (%d ops)", len(hist))
		}
		if res.Key != key {
			t.Fatalf("violation on unexpected key %q: %s", res.Key, res.Violation)
		}
		if len(res.Witness) < 1 || len(res.Witness) > 8 {
			t.Fatalf("witness not shrunk to a minimal core (%d ops of %d):\n%s",
				len(res.Witness), len(hist), linearcheck.FormatOps(res.Witness))
		}
		hasRead := false
		for _, op := range res.Witness {
			if op.Kind == model.Get {
				hasRead = true
			}
		}
		if !hasRead {
			t.Fatalf("witness lacks the torn read:\n%s", linearcheck.FormatOps(res.Witness))
		}
		t.Logf("round %d: seeded violation caught; %d-op history shrunk to %d-op witness:\n%s",
			round, len(hist), len(res.Witness), linearcheck.FormatOps(res.Witness))
		return
	}
	t.Fatal("mutation mode never produced a detectable violation in 50 rounds")
}

// TestModelCheckCrashTear pins a known crash-semantics relaxation the
// checker discovered: a crash between the in-place increment's value
// write and its CAS bump (ops.incr.mid_rewrite) leaves the NEW value
// readable under the OLD generation. The generation-uniqueness pre-pass
// must flag the resulting history deterministically. If incrDecr ever
// journals the pair atomically, this test should start failing — then
// the point can join TestModelCheckFaults' rotation.
func TestModelCheckCrashTear(t *testing.T) {
	defer faultpoint.DisarmAll()
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
		CallTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	book.Store().SetClock(func() int64 { return mcFrozenNow })

	sp, err := book.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	ssess, err := sp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := book.NewClientProcess(1002)
	if err != nil {
		t.Fatal(err)
	}
	dsess, err := dp.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	rec := linearcheck.NewRecorder(2)
	surv := newMCWorker(t, ssess, rec, 0, 1, false)
	doomed := newMCWorker(t, dsess, rec, 1, 1, true)

	const key = "ctr"
	if !surv.doStore(model.Set, key, []byte("100"), 0) || !surv.doGets(key) {
		t.Fatal("setup failed")
	}
	if err := faultpoint.Arm("ops.incr.mid_rewrite", func() {
		dp.Kill()
		panic("modelcheck: injected crash at ops.incr.mid_rewrite")
	}); err != nil {
		t.Fatal(err)
	}
	if doomed.doIncrDecr(key, 1, false) {
		t.Fatal("doomed increment completed; fault point did not fire")
	}
	deadline := time.Now().Add(10 * time.Second)
	for book.Library().Recovering() || func() bool { m := book.Library().Metrics(); return m.Recoveries < 1 }() {
		if book.Library().Poisoned() {
			t.Fatal("library poisoned")
		}
		if time.Now().After(deadline) {
			t.Fatal("no recovery after injected crash")
		}
		time.Sleep(time.Millisecond)
	}
	if !surv.doGets(key) {
		t.Fatal("post-recovery read failed")
	}

	res := linearcheck.Check(rec.History(),
		&model.Model{MaxValueLen: core.MaxValueLen, CrashMayDrop: true}, linearcheck.Options{})
	if res.Ok {
		t.Fatal("crash tear not detected: value/generation pair survived the crash " +
			"intact — if incrDecr now updates them atomically, move ops.incr.mid_rewrite " +
			"into TestModelCheckFaults")
	}
	if !strings.Contains(res.Violation, "cas generation") {
		t.Fatalf("expected a generation-uniqueness violation, got: %s", res.Violation)
	}
	t.Logf("crash tear detected as expected: %s", res.Violation)
}

// TestModelCheckExpiryHistory replays a deterministic clock-stepped
// history through the real session paths, pinning the model's expiry,
// saturation, wrap, and numeric-rejection semantics against the
// implementation's.
func TestModelCheckExpiryHistory(t *testing.T) {
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()

	cp, err := book.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	var now atomic.Int64
	now.Store(mcFrozenNow)
	sess.Ctx().Store().SetClock(now.Load)
	book.Store().SetClock(now.Load)

	rec := linearcheck.NewRecorder(1)
	w := newMCWorker(t, sess, rec, 0, 1, false)
	sess.Ctx().Store().SetClock(now.Load) // newMCWorker froze it; re-point
	step := func(d int64) {
		now.Add(d)
		w.now = now.Load()
	}
	w.now = now.Load()

	// setRel stores with a RELATIVE exptime but records the absolute
	// deadline the model needs.
	setRel := func(key, val string, rel int64) bool {
		i := w.tape.Begin(model.Op{Kind: model.Set, Key: key, Val: []byte(val),
			Flags: uint32(w.id), Exp: w.now + rel, Now: w.now})
		return w.finish(i, w.s.Set([]byte(key), []byte(val), uint32(w.id), rel), nil)
	}
	gatRel := func(key string, rel int64) bool {
		i := w.tape.Begin(model.Op{Kind: model.GAT, Key: key, Exp: w.now + rel, Now: w.now})
		v, f, err := w.s.GetAndTouch([]byte(key), rel)
		return w.finish(i, err, func(op *model.Op) {
			op.RVal = append([]byte(nil), v...)
			op.RFlags = f
		})
	}
	touchRel := func(key string, rel int64) bool {
		i := w.tape.Begin(model.Op{Kind: model.Touch, Key: key, Exp: w.now + rel, Now: w.now})
		return w.finish(i, w.s.Touch([]byte(key), rel), nil)
	}

	ok := setRel("k1", "v1", 50) && w.doGets("k1")
	step(49)
	ok = ok && w.doGets("k1") // one second before the deadline: a hit
	step(1)
	ok = ok && w.doGets("k1") // at the deadline: lazily reaped miss
	// Expired-but-unreaped corpses answer NOT_FOUND on every mutation op.
	ok = ok && setRel("c1", "7", 30) && setRel("k2", "abc", 30)
	step(40)
	ok = ok && w.doIncrDecr("c1", 1, false) && w.doIncrDecr("c1", 1, true)
	ok = ok && w.doPend("k2", []byte("x"), false) && w.doPend("k2", []byte("y"), true)
	// Touch/GAT move deadlines; the old deadline stops mattering.
	ok = ok && setRel("k3", "g", 50)
	step(40)
	ok = ok && gatRel("k3", 100)
	step(80) // past the original deadline, before the new one
	ok = ok && w.doGets("k3") && touchRel("k3", 10)
	step(30)
	ok = ok && w.doGets("k3") // the touched deadline passed: a miss
	ok = ok && touchRel("k3", 10)
	// Saturation, wrap, and numeric rejection through the real paths.
	ok = ok && w.doStore(model.Set, "c2", []byte("18446744073709551615"), 0)
	ok = ok && w.doIncrDecr("c2", 1, false) // wraps to 0
	ok = ok && w.doIncrDecr("c2", 5, true)  // saturates at 0
	ok = ok && w.doStore(model.Set, "c3", []byte("xyz"), 0)
	ok = ok && w.doIncrDecr("c3", 1, false)
	ok = ok && w.doStore(model.Set, "c4", []byte("18446744073709551616"), 0)
	ok = ok && w.doIncrDecr("c4", 1, false) // 2^64: not numeric
	ok = ok && w.doFlush() && w.doGets("c2")
	if !ok {
		t.Fatal("a session call crashed during the scripted history")
	}
	mcCheck(t, rec.History(), &model.Model{MaxValueLen: core.MaxValueLen})
}
