package memcached

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"plibmc/internal/client"
	"plibmc/internal/faultpoint"
	"plibmc/internal/hodor"
	"plibmc/internal/metrics"
	"plibmc/internal/protocol"
)

func newTestCluster(t testing.TB, shards int, cfg ClusterConfig) *Cluster {
	t.Helper()
	cfg.Shards = shards
	if cfg.Store.HeapBytes == 0 {
		cfg.Store = Config{HeapBytes: 16 << 20, HashPower: 10, NumItemLocks: 64}
	}
	c, err := CreateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Shutdown() })
	return c
}

func newClusterSession(t testing.TB, c *Cluster) *ClusterSession {
	t.Helper()
	cc, err := c.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestClusterBasicOps(t *testing.T) {
	c := newTestCluster(t, 4, ClusterConfig{})
	s := newClusterSession(t, c)

	const n = 200
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("ck-%d", i))
		if err := s.Set(k, []byte(fmt.Sprintf("v-%d", i)), uint32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("ck-%d", i))
		v, f, err := s.Get(k)
		if err != nil || string(v) != fmt.Sprintf("v-%d", i) || f != uint32(i) {
			t.Fatalf("get %s = %q %d %v", k, v, f, err)
		}
	}
	// Keys actually spread: every shard holds some.
	for sh := 0; sh < c.Shards(); sh++ {
		if items := c.Shard(sh).Stats().CurrItems; items == 0 {
			t.Fatalf("shard %d holds no items", sh)
		}
	}
	if agg := c.Stats(); agg.CurrItems != n {
		t.Fatalf("aggregate curr_items = %d, want %d", agg.CurrItems, n)
	}

	// The full per-key surface routes consistently.
	if _, _, err := s.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss = %v", err)
	}
	if err := s.Add([]byte("ck-0"), []byte("x"), 0, 0); !errors.Is(err, ErrExists) {
		t.Fatalf("add = %v", err)
	}
	if err := s.Replace([]byte("ck-0"), []byte("r"), 0, 0); err != nil {
		t.Fatal(err)
	}
	_, _, cas, err := s.Gets([]byte("ck-0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CAS([]byte("ck-0"), []byte("c"), 0, 0, cas); err != nil {
		t.Fatal(err)
	}
	if err := s.CAS([]byte("ck-0"), []byte("c2"), 0, 0, cas); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("stale cas = %v", err)
	}
	if err := s.Append([]byte("ck-0"), []byte("+t")); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepend([]byte("ck-0"), []byte("h+")); err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Get([]byte("ck-0")); err != nil || string(v) != "h+c+t" {
		t.Fatalf("after append/prepend = %q %v", v, err)
	}
	s.Set([]byte("num"), []byte("40"), 0, 0)
	if v, err := s.Increment([]byte("num"), 2); err != nil || v != 42 {
		t.Fatalf("incr = %d %v", v, err)
	}
	if v, err := s.Decrement([]byte("num"), 2); err != nil || v != 40 {
		t.Fatalf("decr = %d %v", v, err)
	}
	if err := s.Touch([]byte("num"), 1000); err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.GetAndTouch([]byte("num"), 2000); err != nil || string(v) != "40" {
		t.Fatalf("gat = %q %v", v, err)
	}
	if err := s.Delete([]byte("num")); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if agg := c.Stats(); agg.CurrItems != 0 {
		t.Fatalf("after flush curr_items = %d", agg.CurrItems)
	}
}

// Placement must agree between the session router and the ring, and stay
// deterministic across handles.
func TestClusterRoutingDeterministic(t *testing.T) {
	c := newTestCluster(t, 4, ClusterConfig{})
	s := newClusterSession(t, c)
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("route-%d", i))
		if err := s.Set(k, []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		owner := c.ShardFor(k)
		// The owning shard serves the key directly…
		if v, _, err := s.Session(owner).Get(k); err != nil || string(v) != "v" {
			t.Fatalf("owner shard %d: get %s = %q %v", owner, k, v, err)
		}
		// …and no other shard has it.
		for sh := 0; sh < c.Shards(); sh++ {
			if sh == owner {
				continue
			}
			if _, _, err := s.Session(sh).Get(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("key %s leaked to shard %d: %v", k, sh, err)
			}
		}
	}
}

// A 64-key MGet splits into per-shard sub-batches and reassembles in
// request order, with exactly one batch crossing per involved shard.
func TestClusterMGetSplitsAndReassembles(t *testing.T) {
	c := newTestCluster(t, 4, ClusterConfig{})
	s := newClusterSession(t, c)

	var keys [][]byte
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("mget-%02d", i))
		keys = append(keys, k)
		if i%2 == 0 {
			if err := s.Set(k, []byte(fmt.Sprintf("val-%02d", i)), uint32(i), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := make([]uint64, c.Shards())
	for sh := range before {
		before[sh] = c.Shard(sh).Stats().Batches
	}
	res, err := s.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 64 {
		t.Fatalf("mget returned %d results, want 64", len(res))
	}
	for i := 0; i < 64; i++ {
		if i%2 == 0 {
			if !res[i].Found || string(res[i].Value) != fmt.Sprintf("val-%02d", i) || res[i].Flags != uint32(i) {
				t.Fatalf("res[%d] = %+v — out of request order", i, res[i])
			}
		} else if res[i].Found {
			t.Fatalf("res[%d] found for never-set key", i)
		}
	}
	// One crossing per involved shard: each shard's batch counter rose by
	// exactly one (every shard owns some of 64 keys at 4 shards).
	for sh := 0; sh < c.Shards(); sh++ {
		if got := c.Shard(sh).Stats().Batches - before[sh]; got != 1 {
			t.Fatalf("shard %d executed %d batches for one MGet, want 1", sh, got)
		}
	}
}

// A batch whose ops span shards must keep positional alignment even when
// one shard's crossing fails outright: the dead shard's slots carry
// per-op errors, every other slot holds its own shard's result at the
// position the caller asked for, and MGet reports the dead shard's keys
// as plain misses. Before the per-shard error isolation, a failed
// crossing aborted the whole batch — or worse, collapsed the failed
// shard's slots and shifted every later result left.
//
// The result slots and the value buffer are the caller's, lent to every
// shard, so the same must hold when a crossing dies half way through its
// share (ops.batch.mid_dispatch): the ops that had already run wrote
// their slots and their values, and none of that may show. And after any
// of these returns the session's own scratch holds nothing of the
// caller's, and what it lends holds no pointer into the caller's bytes.
func TestClusterExecBatchShardFailureAlignment(t *testing.T) {
	c := newTestCluster(t, 4, ClusterConfig{})
	cc, err := c.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Seed keys and bucket them by owning shard.
	byShard := make(map[int][]string)
	covered := func() bool {
		for sh := 0; sh < 4; sh++ {
			if len(byShard[sh]) < 4 {
				return false
			}
		}
		return true
	}
	for i := 0; !covered(); i++ {
		k := fmt.Sprintf("align-%03d", i)
		if err := s.Set([]byte(k), []byte("val-"+k), uint32(i), 0); err != nil {
			t.Fatal(err)
		}
		sh := c.ShardFor([]byte(k))
		byShard[sh] = append(byShard[sh], k)
		if i > 4096 {
			t.Fatal("keys never spread over all 4 shards")
		}
	}
	// Interleave victim-shard and survivor-shard keys so any collapsing
	// of the failed shard's slots would visibly shift later results.
	interleave := func(victim int) (keys []string) {
		for i := 0; i < 4; i++ {
			keys = append(keys, byShard[victim][i])
			keys = append(keys, byShard[(victim+1)%4][i], byShard[(victim+3)%4][i])
		}
		return keys
	}

	// Shares are crossed in shard order, so the one-shot fault point fires
	// in shard 0's, after the first of its four ops.
	const crashed = 0
	crash := func() {
		t.Helper()
		if err := faultpoint.Arm("ops.batch.mid_dispatch", func() {
			panic("injected: crash between two ops of a shard's share")
		}); err != nil {
			t.Fatal(err)
		}
	}
	repaired := func() {
		t.Helper()
		lib := c.Shard(crashed).Library()
		for deadline := time.Now().Add(10 * time.Second); lib.Recovering(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("crashed shard did not leave the Recovering state")
			}
		}
	}
	defer faultpoint.DisarmAll()
	ckeys := interleave(crashed)
	cops := make([]BatchOp, len(ckeys))
	for i, k := range ckeys {
		cops[i] = BatchOp{Code: BatchGet, Key: []byte(k)}
	}
	cops[0] = BatchOp{Code: BatchSet, Key: []byte(ckeys[0]), Value: []byte("rewritten")}
	caller := opBytes(cops) // the caller's bytes: these, and below the keys of later batches
	crash()
	cres, err := s.ExecBatch(cops)
	if err != nil {
		t.Fatalf("ExecBatch must isolate a crashed crossing, got call error %v", err)
	}
	for i, k := range ckeys {
		if c.ShardFor([]byte(k)) == crashed {
			var ce *hodor.CrashError
			if !errors.As(cres[i].Err, &ce) || !strings.Contains(cres[i].Err.Error(), fmt.Sprintf("shard %d", crashed)) {
				t.Fatalf("cres[%d] (%s, crashed shard): %v, want the wrapped crash", i, k, cres[i].Err)
			}
			if r := cres[i]; r.Value != nil || r.Flags != 0 || r.CAS != 0 {
				t.Fatalf("cres[%d] (%s, crashed shard) carries more than the error: %+v", i, k, cres[i])
			}
			continue
		}
		if cres[i].Err != nil || string(cres[i].Value) != "val-"+k {
			t.Fatalf("cres[%d] (%s, live shard) = %q err=%v — misaligned", i, k, cres[i].Value, cres[i].Err)
		}
	}
	scratchHoldsNothing(t, s, caller)
	repaired()
	// The slot says the crossing failed; the op before the crash had run.
	if v, _, err := s.Get([]byte(ckeys[0])); err != nil || string(v) != "rewritten" {
		t.Fatalf("op executed before the crash = %q, %v; want it durable", v, err)
	}
	if err := s.Set([]byte(ckeys[0]), []byte("val-"+ckeys[0]), 0, 0); err != nil {
		t.Fatal(err)
	}
	// MGet: the first key's value was already in the buffer when its
	// crossing died.
	ckb := make([][]byte, len(ckeys))
	for i, k := range ckeys {
		ckb[i] = []byte(k)
	}
	caller = append(caller, ckb...)
	crash()
	cm, err := s.MGet(ckb)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ckeys {
		if onCrashed := c.ShardFor([]byte(k)) == crashed; onCrashed && (cm[i].Found || cm[i].Value != nil) {
			t.Fatalf("cm[%d] (%s, crashed shard) = %+v, want a bare miss", i, k, cm[i])
		} else if !onCrashed && (!cm[i].Found || string(cm[i].Value) != "val-"+k) {
			t.Fatalf("cm[%d] (%s, live shard) = %+v — misaligned", i, k, cm[i])
		}
	}
	scratchHoldsNothing(t, s, caller)
	repaired()

	const dead = 2
	keys := interleave(dead)
	cc.Proc(dead).Kill()

	ops := make([]BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = BatchOp{Code: BatchGet, Key: []byte(k)}
	}
	caller = append(caller, opBytes(ops)...)
	res, err := s.ExecBatch(ops)
	if err != nil {
		t.Fatalf("ExecBatch must isolate a shard failure, got call error %v", err)
	}
	if len(res) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(res), len(ops))
	}
	for i, k := range keys {
		if c.ShardFor([]byte(k)) == dead {
			if res[i].Err == nil {
				t.Fatalf("res[%d] (%s, dead shard) succeeded: %+v", i, k, res[i])
			}
			if !strings.Contains(res[i].Err.Error(), fmt.Sprintf("shard %d", dead)) {
				t.Fatalf("res[%d] error does not name the failed shard: %v", i, res[i].Err)
			}
			continue
		}
		if res[i].Err != nil || string(res[i].Value) != "val-"+k {
			t.Fatalf("res[%d] (%s, live shard) = %q err=%v — misaligned", i, k, res[i].Value, res[i].Err)
		}
	}
	scratchHoldsNothing(t, s, caller)

	// MGet over the same interleaving: dead shard's keys degrade to
	// misses, live keys stay found at their requested positions.
	bkeys := make([][]byte, len(keys))
	for i, k := range keys {
		bkeys[i] = []byte(k)
	}
	caller = append(caller, bkeys...)
	mres, err := s.MGet(bkeys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if c.ShardFor([]byte(k)) == dead {
			if mres[i].Found {
				t.Fatalf("mres[%d] (%s, dead shard) found", i, k)
			}
			continue
		}
		if !mres[i].Found || string(mres[i].Value) != "val-"+k {
			t.Fatalf("mres[%d] (%s, live shard) = %+v — misaligned", i, k, mres[i])
		}
	}
	scratchHoldsNothing(t, s, caller)

	// A plain Session's crossing is the whole call: it fails as one, and
	// returns nothing — not the results of the batch before it — and its
	// scratch is wiped on that path too.
	ss := s.Session(crashed)
	if _, err := ss.MGet(ckb[:2]); err != nil {
		t.Fatal(err)
	}
	crash()
	if got, err := ss.MGet(ckb[:2]); err == nil || got != nil {
		t.Fatalf("Session.MGet across a crashed crossing = %+v, %v", got, err)
	}
	scratchHoldsNothing(t, s, caller)
	repaired()
	if _, err := ss.ExecBatch(cops[1:3]); err != nil {
		t.Fatal(err)
	}
	crash()
	if got, err := ss.ExecBatch(cops[1:3]); err == nil || got != nil {
		t.Fatalf("Session.ExecBatch across a crashed crossing = %+v, %v", got, err)
	}
	scratchHoldsNothing(t, s, caller)
	repaired()

	// An empty batch is an empty result, on either session type.
	for _, kv := range []KV{s, ss} {
		if got, err := kv.ExecBatch(nil); err != nil || len(got) != 0 {
			t.Fatalf("%T.ExecBatch(nil) = %+v, %v; want no results and no error", kv, got, err)
		}
	}
	scratchHoldsNothing(t, s, caller)
}

// opBytes lists the keys and values of ops.
func opBytes(ops []BatchOp) [][]byte {
	var b [][]byte
	for _, op := range ops {
		b = append(b, op.Key, op.Value)
	}
	return b
}

// overlaps reports whether a and b share a byte.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for i := range a {
		if &a[i] == &b[0] {
			return true
		}
	}
	for i := range b {
		if &b[i] == &a[0] {
			return true
		}
	}
	return false
}

// scratchHoldsNothing inspects everything a ClusterSession and its
// per-shard Sessions keep between batches, over its whole capacity. MGet's
// ops and results and the partition by shard are scratch: no key, value
// or error of a finished batch may be reachable from them. The results and
// the value buffer a batch lends (gets, batched, vbuf) may hold the last
// batch's results, but nothing of caller's bytes: no key or value it
// handed in.
func scratchHoldsNothing(t *testing.T, s *ClusterSession, caller [][]byte) {
	t.Helper()
	ops := func(where string, ops []BatchOp) {
		for _, op := range ops[:cap(ops)] {
			if op.Key != nil || op.Value != nil {
				t.Fatalf("%s still holds an op of the last batch: %+v", where, op)
			}
		}
	}
	results := func(where string, res []BatchResult) {
		for _, r := range res[:cap(res)] {
			if r.Value != nil || r.Err != nil {
				t.Fatalf("%s still holds a result of the last batch: %+v", where, r)
			}
		}
	}
	foreign := func(where string, b []byte) {
		for _, c := range caller {
			if overlaps(b, c) {
				t.Fatalf("%s holds the caller's bytes %q", where, c)
			}
		}
	}
	lent := func(where string, v *verbs) {
		for i, r := range v.gets[:cap(v.gets)] {
			foreign(fmt.Sprintf("%s MGet result %d", where, i), r.Value)
		}
		for i, r := range v.batched[:cap(v.batched)] {
			foreign(fmt.Sprintf("%s ExecBatch result %d", where, i), r.Value)
		}
		foreign(where+" value buffer", v.vbuf[:cap(v.vbuf)])
	}
	ops("ClusterSession MGet ops", s.ops)
	results("ClusterSession MGet results", s.results)
	lent("ClusterSession", &s.verbs)
	for sh := range s.part.ops {
		ops(fmt.Sprintf("partition share %d", sh), s.part.ops[sh])
	}
	results("partition results", s.part.res)
	for sh, ss := range s.sessions {
		ops(fmt.Sprintf("shard %d Session MGet ops", sh), ss.ops)
		results(fmt.Sprintf("shard %d Session MGet results", sh), ss.results)
		lent(fmt.Sprintf("shard %d Session", sh), &ss.verbs)
	}
}

// TestContextsScatterSlots: two ClusterSessions from two client processes
// on one store are the first thread of each process, so their owner tokens
// differ only in the PID bits, which any modulus up to 2^20 drops. Their
// contexts must still count into different statistics and latency slots —
// the paper's scattered array — and the sums must come out the same.
func TestContextsScatterSlots(t *testing.T) {
	c := newTestCluster(t, 1, ClusterConfig{})
	a, b := newClusterSession(t, c), newClusterSession(t, c)
	statA, latA := a.Session(0).Ctx().Slots()
	statB, latB := b.Session(0).Ctx().Slots()
	if statA == statB || latA == latB {
		t.Fatalf("both sessions count into stats slot %d/%d, latency slot %d/%d", statA, statB, latA, latB)
	}
	const n = 40
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("scatter-%d", i))
		if err := a.Set(k, []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Get(k); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("miss = %v", err)
		}
	}
	st := c.Stats()
	if st.Sets != n || st.Gets != 2*n || st.GetHits != n || st.GetMisses != n || st.CurrItems != n {
		t.Fatalf("stats = %+v, want %d sets, %d gets (%d hits), %d items", st, n, 2*n, n, n)
	}
}

func TestClusterExecBatchMixed(t *testing.T) {
	c := newTestCluster(t, 3, ClusterConfig{})
	s := newClusterSession(t, c)
	ops := []BatchOp{
		{Code: BatchSet, Key: []byte("b1"), Value: []byte("v1"), Flags: 7},
		{Code: BatchSet, Key: []byte("b2"), Value: []byte("10")},
		{Code: BatchGet, Key: []byte("b1")},
		{Code: BatchIncr, Key: []byte("b2"), Delta: 5},
		{Code: BatchGet, Key: []byte("nope")},
		{Code: BatchDelete, Key: []byte("b1")},
	}
	res, err := s.ExecBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("sets failed: %v %v", res[0].Err, res[1].Err)
	}
	if res[2].Err != nil || string(res[2].Value) != "v1" || res[2].Flags != 7 {
		t.Fatalf("batched get = %+v", res[2])
	}
	if res[3].Err != nil || res[3].Num != 15 {
		t.Fatalf("batched incr = %+v", res[3])
	}
	if !errors.Is(res[4].Err, ErrNotFound) {
		t.Fatalf("batched miss = %v", res[4].Err)
	}
	if res[5].Err != nil {
		t.Fatalf("batched delete = %v", res[5].Err)
	}
}

// Shards persist and reload independently: Create → populate → Shutdown →
// Open finds every key again from the per-shard images.
func TestClusterPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := ClusterConfig{Shards: 3, Dir: dir,
		Store: Config{HeapBytes: 16 << 20, HashPower: 10, NumItemLocks: 64}}
	c, err := CreateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := c.NewClientProcess(1000)
	s, _ := cc.NewSession()
	for i := 0; i < 100; i++ {
		if err := s.Set([]byte(fmt.Sprintf("p-%d", i)), []byte(fmt.Sprintf("pv-%d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Shutdown()
	s2 := newClusterSession(t, c2)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("p-%d", i))
		if v, _, err := s2.Get(k); err != nil || string(v) != fmt.Sprintf("pv-%d", i) {
			t.Fatalf("reloaded get %s = %q %v", k, v, err)
		}
	}
}

// The cluster's /metrics is every shard's store plane under a shard label,
// first, plus the rows only a cluster has; no series appears twice and
// /debug/vars is gone.
func TestClusterMetricsSamples(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{})
	s := newClusterSession(t, c)
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("m-%d", i))
		s.Set(k, []byte("v"), 0, 0)
		s.Get(k)
	}
	series := scrape(t, c.MetricsHandler())
	cm := c.Metrics()
	for i := range cm.Shards {
		shard := fmt.Sprintf(`{shard="%d"`, i)
		for _, want := range []string{
			`plibmc_op_latency_seconds` + shard + `,op="get",quantile="0.99"}`,
			`plibmc_ops_total` + shard + `,op="set"}`,
			`plibmc_trampoline_crossings_total` + shard + `}`,
			`plibmc_recovery_repairs_total` + shard + `}`,
			`plibmc_checkpoint_failures_total` + shard + `}`,
		} {
			if _, ok := series[want]; !ok {
				t.Errorf("/metrics missing %s", want)
			}
		}
		if v := series[`plibmc_shard_state`+shard+`}`]; v != fmt.Sprint(int(ShardHealthy)) {
			t.Errorf("shard %d state = %q, want healthy", i, v)
		}
		// Every row of the shard's store plane is served, shard first.
		var b strings.Builder
		for _, smp := range cm.Shards[i].Samples() {
			smp.Labels = append(metrics.L("shard", fmt.Sprint(i)), smp.Labels...)
			b.Reset()
			metrics.WriteProm(&b, []metrics.Sample{smp})
			key := b.String()[:strings.LastIndexByte(b.String(), ' ')]
			if _, ok := series[key]; !ok {
				t.Errorf("/metrics missing store row %s", key)
			}
		}
	}
	for key := range series {
		if strings.Contains(key, "{") && !strings.Contains(key, `{shard="`) {
			t.Errorf("series %s is not labelled shard first", key)
		}
		if strings.HasPrefix(key, "plibmc_shard_ops_total") {
			t.Errorf("duplicate family still served: %s", key)
		}
	}
	for _, want := range []string{"plibmc_migration_state", "plibmc_shard_rebuilds_total", "plibmc_breaker_trips_total"} {
		if _, ok := series[want]; !ok {
			t.Errorf("/metrics missing cluster row %s", want)
		}
	}
}

// The socket proxy serves baseline-protocol clients transparently over
// the cluster: both protocols, batching, stats aggregation.
func TestClusterProxyWire(t *testing.T) {
	c := newTestCluster(t, 4, ClusterConfig{})
	srv, err := c.ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, proto := range []client.Protocol{client.ASCII, client.Binary} {
		name := map[client.Protocol]string{client.Binary: "binary", client.ASCII: "ascii"}[proto]
		t.Run(name, func(t *testing.T) {
			cl, err := client.Dial("tcp", srv.Addr().String(), proto)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 60; i++ {
				k := []byte(fmt.Sprintf("%s-wire-%d", name, i))
				if err := cl.Set(k, []byte(fmt.Sprintf("wv-%d", i)), 3, 0); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 60; i++ {
				k := []byte(fmt.Sprintf("%s-wire-%d", name, i))
				v, f, _, err := cl.Get(k)
				if err != nil || string(v) != fmt.Sprintf("wv-%d", i) || f != 3 {
					t.Fatalf("get %s = %q %d %v", k, v, f, err)
				}
			}
			// Pipelined MGet crosses shards and reassembles in order.
			var keys [][]byte
			for i := 0; i < 60; i++ {
				keys = append(keys, []byte(fmt.Sprintf("%s-wire-%d", name, i)))
			}
			kv := NewSocketSession(cl)
			got, err := kv.MGet(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range got {
				if !r.Found || string(r.Value) != fmt.Sprintf("wv-%d", i) {
					t.Fatalf("mget %s = %q, %v", keys[i], r.Value, r.Found)
				}
			}
			if n, err := kv.Increment([]byte(name+"-n"), 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("incr on absent key = %d, %v", n, err)
			}
			if err := kv.Delete(keys[0]); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := cl.Get(keys[0]); err == nil {
				t.Fatal("deleted key still present")
			}
			ver, err := cl.Do(&protocol.Command{Op: protocol.OpVersion})
			if err != nil || !strings.Contains(ver.Version, "cluster") {
				t.Fatalf("version = %+v %v", ver, err)
			}
			stats, err := cl.Do(&protocol.Command{Op: protocol.OpStats})
			if err != nil || !slices.Contains(stats.Stats, [2]string{"shards", "4"}) || !slices.Contains(stats.Stats, [2]string{"shard0:state", "0"}) {
				t.Fatalf("stats = %v %v; want shards 4, shard0:state 0", stats, err)
			}
		})
	}

	// Keys written over the wire spread across shards.
	spread := 0
	for sh := 0; sh < c.Shards(); sh++ {
		if c.Shard(sh).Stats().CurrItems > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("wire traffic landed on %d shards", spread)
	}
}

// BenchmarkClusterRouting pins the routing tier's per-op overhead: the
// same single-session 95/5 Get/Set mix against one store driven directly
// and against a 4-shard cluster (ring lookup + per-shard dispatch). The
// delta is the price of sharding when the parallelism it buys is not in
// play.
func BenchmarkClusterRouting(b *testing.B) {
	const nKeys = 4096
	keys := make([][]byte, nKeys)
	val := make([]byte, 128)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench%04d", i))
	}
	mix := func(b *testing.B, get func([]byte) error, set func([]byte) error) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%nKeys]
			if i%20 == 19 {
				if err := set(k); err != nil {
					b.Fatal(err)
				}
			} else if err := get(k); err != nil && !errors.Is(err, ErrNotFound) {
				b.Fatal(err)
			}
		}
	}

	b.Run("direct", func(b *testing.B) {
		book, err := CreateStore(Config{HeapBytes: 64 << 20, HashPower: 12, NumItemLocks: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer book.Shutdown()
		cp, err := book.NewClientProcess(1000)
		if err != nil {
			b.Fatal(err)
		}
		s, err := cp.NewSession()
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if err := s.Set(k, val, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		mix(b,
			func(k []byte) error { _, _, err := s.Get(k); return err },
			func(k []byte) error { return s.Set(k, val, 0, 0) })
	})
	b.Run("cluster-4", func(b *testing.B) {
		c := newTestCluster(b, 4, ClusterConfig{
			Store: Config{HeapBytes: 16 << 20, HashPower: 10, NumItemLocks: 64},
		})
		s := newClusterSession(b, c)
		for _, k := range keys {
			if err := s.Set(k, val, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		mix(b,
			func(k []byte) error { _, _, err := s.Get(k); return err },
			func(k []byte) error { return s.Set(k, val, 0, 0) })
	})
}

// BenchmarkClusterMGet64 measures the sharded 64-key MGet: the batch
// splits across 4 shards (one crossing each) and reassembles positionally.
func BenchmarkClusterMGet64(b *testing.B) {
	c := newTestCluster(b, 4, ClusterConfig{
		Store: Config{HeapBytes: 16 << 20, HashPower: 10, NumItemLocks: 64},
	})
	s := newClusterSession(b, c)
	val := make([]byte, 128)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mget%04d", i))
		if err := s.Set(keys[i], val, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.MGet(keys)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 64 {
			b.Fatal("short result")
		}
	}
}
