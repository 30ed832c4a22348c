package plibmc

// Conformance tables (ROADMAP 2c). Every operation reaches core.Ctx as a
// BatchOp through one path per tier, so one table per tier pins them all:
// testKV drives every implementation of memcached.KV — and, for each case,
// all three ways an op can travel (the single-key method, a one-op
// ExecBatch, a slot of a mixed ExecBatch) — against the sequential
// reference in internal/model; TestWireLoneVsPipelined does the same for
// the two plib socket front ends, where the lone and the batched dispatch
// must render byte-identical replies.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/client"
	"plibmc/internal/core"
	"plibmc/internal/model"
	"plibmc/internal/protocol"
	"plibmc/internal/server"
	"plibmc/memcached"
)

// conformanceKVs builds one of every kind of KV, each over its own fresh
// store: a trampolined Session, the paper's "Plib, No Hodor" session, and
// 1- and 4-shard ClusterSessions.
func conformanceKVs(t *testing.T) map[string]memcached.KV {
	t.Helper()
	cfg := memcached.Config{HeapBytes: 16 << 20, HashPower: 10}
	kvs := map[string]memcached.KV{}
	for _, direct := range []bool{false, true} {
		book, err := memcached.CreateStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { book.Shutdown() })
		cp, err := book.NewClientProcess(1001)
		if err != nil {
			t.Fatal(err)
		}
		if direct {
			kvs["session-nohodor"], err = cp.NewSessionNoHodor()
		} else {
			kvs["session"], err = cp.NewSession()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 4} {
		c, err := memcached.CreateCluster(memcached.ClusterConfig{Shards: n, Store: cfg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Shutdown() })
		cc, err := c.NewClientProcess(1001)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := cc.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		kvs[fmt.Sprintf("cluster-%d", n)] = cs
	}
	return kvs
}

// socketKVs builds a SocketSession over each of the three servers — the
// baseline, the hybrid front end and the cluster proxy — in each protocol,
// every one over its own fresh server.
func socketKVs(t *testing.T) map[string]memcached.KV {
	t.Helper()
	cfg := memcached.Config{HeapBytes: 16 << 20, HashPower: 10}
	servers := map[string]func(sock string) net.Addr{
		"baseline": func(sock string) net.Addr {
			srv, err := server.New(server.Config{Network: "unix", Addr: sock, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve()
			t.Cleanup(srv.Close)
			return srv.Addr()
		},
		"hybrid": func(sock string) net.Addr {
			book, err := memcached.CreateStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { book.Shutdown() })
			rs, err := book.ServeRemote("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rs.Close)
			return rs.Addr()
		},
		"proxy": func(sock string) net.Addr {
			c, err := memcached.CreateCluster(memcached.ClusterConfig{Shards: 4, Store: cfg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Shutdown() })
			cs, err := c.ServeRemote("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cs.Close)
			return cs.Addr()
		},
	}
	kvs := map[string]memcached.KV{}
	dir := t.TempDir()
	for name, start := range servers {
		for proto, wire := range map[string]client.Protocol{"ascii": client.ASCII, "binary": client.Binary} {
			addr := start(filepath.Join(dir, name+"-"+proto+".sock"))
			c, err := client.Dial("unix", addr.String(), wire)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			kvs[name+"-"+proto] = memcached.NewSocketSession(c)
		}
	}
	return kvs
}

func TestKVConformance(t *testing.T) {
	kvs := conformanceKVs(t)
	maps.Copy(kvs, socketKVs(t))
	for name, kv := range kvs {
		t.Run(name, func(t *testing.T) { testKV(t, kv, strings.HasSuffix(name, "-ascii")) })
	}
}

// kvCodes maps the model's op kinds to batch codes.
var kvCodes = map[model.Kind]core.BatchCode{
	model.Get: memcached.BatchGet, model.GAT: memcached.BatchGAT,
	model.Set: memcached.BatchSet, model.Add: memcached.BatchAdd,
	model.Replace: memcached.BatchReplace, model.CAS: memcached.BatchCAS,
	model.Delete: memcached.BatchDelete, model.Incr: memcached.BatchIncr,
	model.Decr: memcached.BatchDecr, model.Append: memcached.BatchAppend,
	model.Prepend: memcached.BatchPrepend, model.Touch: memcached.BatchTouch,
}

// The three ways an operation can reach the store.
const (
	formSingle = iota // the single-key method
	formBatch1        // a one-op ExecBatch
	formMixed         // one slot of a mixed ExecBatch
	numForms
)

// testKV is the conformance table: every verb against an absent key, a
// text value and a numeric value — which between them produce every
// per-key outcome (hit, miss, exists, CAS match and mismatch, non-numeric)
// — plus an over-long key, in each of the three forms. Each observed
// result must be the one the reference model allows from the prepared
// state, the three forms must agree with each other, and a read
// afterwards must see the model's successor state. Over an ASCII
// connection, a key that would end the command line early is refused with
// ErrBadKey before anything is written; everywhere else it is a key.
func testKV(t *testing.T, kv memcached.KV, ascii bool) {
	sides := 0
	// apply runs op in the given form, records what it returned in op, and
	// returns its error.
	apply := func(form int, op *model.Op) error {
		t.Helper()
		key := []byte(op.Key)
		if form == formSingle {
			var err error
			switch op.Kind {
			case model.Get:
				op.RVal, op.RFlags, op.RCAS, err = kv.Gets(key)
				if v, f, gerr := kv.Get(key); !bytes.Equal(v, op.RVal) || f != op.RFlags || !errors.Is(gerr, err) {
					t.Errorf("%s: Get = %q, %d, %v; Gets = %q, %d, %v", op.Key, v, f, gerr, op.RVal, op.RFlags, err)
				}
			case model.GAT:
				op.RVal, op.RFlags, err = kv.GetAndTouch(key, op.Exp)
			case model.Set:
				err = kv.Set(key, op.Val, op.Flags, op.Exp)
			case model.Add:
				err = kv.Add(key, op.Val, op.Flags, op.Exp)
			case model.Replace:
				err = kv.Replace(key, op.Val, op.Flags, op.Exp)
			case model.CAS:
				err = kv.CAS(key, op.Val, op.Flags, op.Exp, op.CASArg)
			case model.Delete:
				err = kv.Delete(key)
			case model.Incr:
				op.RNum, err = kv.Increment(key, op.Delta)
			case model.Decr:
				op.RNum, err = kv.Decrement(key, op.Delta)
			case model.Append:
				err = kv.Append(key, op.Val)
			case model.Prepend:
				err = kv.Prepend(key, op.Val)
			case model.Touch:
				err = kv.Touch(key, op.Exp)
			}
			return err
		}
		ops := []memcached.BatchOp{{Code: kvCodes[op.Kind], Key: key, Value: op.Val,
			Flags: op.Flags, Exptime: op.Exp, Delta: op.Delta, CAS: op.CASArg}}
		at := 0
		if form == formMixed {
			// Siblings on other keys (other shards, on a cluster) around
			// the op: a store, a miss, a failure and a dependent read.
			sides++
			side := []byte(fmt.Sprintf("side-%d", sides))
			ops = []memcached.BatchOp{
				{Code: memcached.BatchSet, Key: side, Value: []byte("s")},
				{Code: memcached.BatchGet, Key: []byte("side-absent")},
				ops[0],
				{Code: memcached.BatchIncr, Key: side, Delta: 1},
				{Code: memcached.BatchAppend, Key: side, Value: []byte("!")},
				{Code: memcached.BatchGet, Key: side},
			}
			at = 2
		}
		res, err := kv.ExecBatch(ops)
		if err != nil || len(res) != len(ops) {
			t.Fatalf("%s: ExecBatch = %d results, %v; want %d", op.Key, len(res), err, len(ops))
		}
		if form == formMixed {
			if res[0].Err != nil || !errors.Is(res[1].Err, memcached.ErrNotFound) ||
				!errors.Is(res[3].Err, memcached.ErrNotNumeric) || res[4].Err != nil ||
				res[5].Err != nil || string(res[5].Value) != "s!" {
				t.Errorf("%s: siblings in the mixed batch = %+v", op.Key, res)
			}
		}
		r := res[at]
		op.RVal, op.RFlags, op.RCAS, op.RNum = r.Value, r.Flags, r.CAS, r.Num
		return r.Err
	}

	const (
		casNone = iota
		casMatch
		casMismatch
	)
	verbs := []struct {
		name string
		op   model.Op
		cas  int
	}{
		{"get", model.Op{Kind: model.Get}, casNone},
		{"gat", model.Op{Kind: model.GAT, Exp: 3600}, casNone},
		{"set", model.Op{Kind: model.Set, Val: []byte("new"), Flags: 9}, casNone},
		{"add", model.Op{Kind: model.Add, Val: []byte("new"), Flags: 9}, casNone},
		{"replace", model.Op{Kind: model.Replace, Val: []byte("new"), Flags: 9}, casNone},
		{"cas-match", model.Op{Kind: model.CAS, Val: []byte("new"), Flags: 9}, casMatch},
		{"cas-mismatch", model.Op{Kind: model.CAS, Val: []byte("new"), Flags: 9}, casMismatch},
		{"delete", model.Op{Kind: model.Delete}, casNone},
		{"incr", model.Op{Kind: model.Incr, Delta: 7}, casNone},
		{"decr", model.Op{Kind: model.Decr, Delta: 50}, casNone},
		{"append", model.Op{Kind: model.Append, Val: []byte("+")}, casNone},
		{"prepend", model.Op{Kind: model.Prepend, Val: []byte("+")}, casNone},
		{"touch", model.Op{Kind: model.Touch, Exp: 3600}, casNone},
	}
	preps := []struct {
		name    string
		present bool
		val     string
		flags   uint32
	}{
		{"absent", false, "", 0},
		{"text", true, "hello", 5},
		{"numeric", true, "41", 0},
	}
	type outcome struct {
		res   model.Res
		val   string
		flags uint32
		num   uint64
	}
	m := &model.Model{}
	for _, prep := range preps {
		for _, verb := range verbs {
			var first outcome
			for form := 0; form < numForms; form++ {
				key := fmt.Sprintf("%s/%s/%d", prep.name, verb.name, form)
				var st model.State
				if prep.present {
					if err := kv.Set([]byte(key), []byte(prep.val), prep.flags, 0); err != nil {
						t.Fatalf("%s: prepare: %v", key, err)
					}
					_, _, cas, err := kv.Gets([]byte(key))
					if err != nil {
						t.Fatalf("%s: prepare: %v", key, err)
					}
					st = model.State{Present: true, Val: prep.val, Flags: prep.flags, CAS: cas}
				}
				op := verb.op
				op.Key = key
				switch verb.cas {
				case casMatch:
					op.CASArg = st.CAS
				case casMismatch:
					op.CASArg = st.CAS + 1
				}
				var ok bool
				if op.Res, ok = mcResult(apply(form, &op)); !ok {
					t.Errorf("%s: unexpected error class", key)
					continue
				}
				next := m.Step(st, &op)
				if len(next) != 1 {
					t.Errorf("%s: result %v (value %q flags %d cas %d num %d) is not what the model allows from %+v",
						key, op.Res, op.RVal, op.RFlags, op.RCAS, op.RNum, st)
					continue
				}
				got := outcome{res: op.Res}
				if op.Res == model.ResOK {
					got = outcome{op.Res, string(op.RVal), op.RFlags, op.RNum}
				}
				if form == formSingle {
					first = got
				} else if got != first {
					t.Errorf("%s: form %d returned %+v, the single-key call %+v", key, form, got, first)
				}
				v, f, err := kv.Get([]byte(key))
				if want := next[0]; !want.Present {
					if !errors.Is(err, memcached.ErrNotFound) {
						t.Errorf("%s: afterwards Get = %q, %v; want a miss", key, v, err)
					}
				} else if err != nil || string(v) != want.Val || f != want.Flags {
					t.Errorf("%s: afterwards Get = %q, %d, %v; want %q, %d", key, v, f, err, want.Val, want.Flags)
				}
			}
		}
	}

	// A key past MaxKeyLen is refused by every verb in every form, and the
	// mixed batch's siblings are none the worse for it.
	long := strings.Repeat("k", core.MaxKeyLen+1)
	for _, verb := range verbs {
		for form := 0; form < numForms; form++ {
			op := verb.op
			op.Key = long
			if err := apply(form, &op); !errors.Is(err, memcached.ErrKeyTooLong) {
				t.Errorf("over-long key, %s, form %d: %v; want ErrKeyTooLong", verb.name, form, err)
			}
		}
	}

	// Keys that would smuggle a second command onto an ASCII line. The
	// first smuggles a quiet delete, which answers nothing, so the stream
	// stays in step and the key it names must survive; then every verb in
	// every form.
	survivor := []byte("survivor")
	if err := kv.Set(survivor, []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := kv.Get([]byte("x\r\ndelete survivor noreply")); ascii != errors.Is(err, memcached.ErrBadKey) {
		t.Errorf("get of a key holding a second command: %v; want ErrBadKey only over ASCII", err)
	}
	if v, _, err := kv.Get(survivor); err != nil || string(v) != "v" {
		t.Fatalf("after a key holding a delete of it, a key set before it = %q, %v", v, err)
	}
	for _, key := range []string{"x\r\nflush_all", "x flush_all", "tab\tkey", "del\x7f"} {
		for _, verb := range verbs {
			for form := 0; form < numForms; form++ {
				op := verb.op
				op.Key = key
				if err := apply(form, &op); ascii != errors.Is(err, memcached.ErrBadKey) {
					t.Errorf("key %q, %s, form %d: %v; want ErrBadKey only over ASCII", key, verb.name, form, err)
				}
			}
		}
	}
	if v, _, err := kv.Get(survivor); err != nil || string(v) != "v" {
		t.Errorf("after the smuggling keys, a key set before them = %q, %v", v, err)
	}
}

// bytesPerRun is the Go heap bytes one call of f allocates, averaged over
// runs calls after as many warm-up calls, without rounding.
func bytesPerRun(runs int, f func()) float64 {
	for i := 0; i < runs; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestOpAllocs pins what one operation allocates on each session type: a
// Get hit its value and nothing else, a Set nothing, a batch nothing. The
// call frame lies in the session, and so does a batch's, so no tier
// between the caller and core.Ctx may add to that.
func TestOpAllocs(t *testing.T) {
	kvs := conformanceKVs(t)
	for _, name := range []string{"session", "cluster-4"} {
		kv := kvs[name]
		key, val := []byte("pinned"), bytes.Repeat([]byte("v"), 128)
		if err := kv.Set(key, val, 0, 0); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { kv.Get(key) }); n != 1 { //nolint:errcheck
			t.Errorf("%s: Get hit allocates %v times, want 1 (the value)", name, n)
		}
		// Bytes, over enough overwrites that the allocator's thread cache
		// fills and spills many times: AllocsPerRun truncates its average,
		// so a spill's few allocations spread over the Sets between spills
		// would read as 0.
		if n := bytesPerRun(10000, func() { kv.Set(key, val, 0, 0) }); n >= 1 { //nolint:errcheck
			t.Errorf("%s: Set allocates %.2f bytes per op over 10 000 overwrites, want under 1", name, n)
		}
	}

	// The batch plane. A batch allocates nothing on either session type:
	// its results and the one buffer all retrieved values share are the
	// session's, lent to the caller until the session's next batch; MGet's
	// ops and BatchResults are session scratch, so is the partition of a
	// batch by shard, and every tier below works in the slots and the
	// buffer it is lent.
	for _, name := range []string{"session", "cluster-4"} {
		kv := kvs[name]
		keys := make([][]byte, 64)
		gets, sets := make([]memcached.BatchOp, len(keys)), make([]memcached.BatchOp, 16)
		want := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 128) }
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("batch-%02d", i))
			if err := kv.Set(keys[i], want(i), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := range gets {
			gets[i] = memcached.BatchOp{Code: memcached.BatchGet, Key: keys[len(keys)-1-i]}
		}
		for i := range sets {
			sets[i] = memcached.BatchOp{Code: memcached.BatchSet, Key: []byte(fmt.Sprintf("stored-%02d", i)), Value: []byte("v")}
		}
		if n := testing.AllocsPerRun(200, func() { kv.MGet(keys) }); n != 0 { //nolint:errcheck
			t.Errorf("%s: 64-key MGet allocates %v times, want 0", name, n)
		}
		if n := testing.AllocsPerRun(200, func() { kv.ExecBatch(gets) }); n != 0 { //nolint:errcheck
			t.Errorf("%s: 64-Get ExecBatch allocates %v times, want 0", name, n)
		}
		if n := testing.AllocsPerRun(200, func() { kv.ExecBatch(sets) }); n != 0 { //nolint:errcheck
			t.Errorf("%s: 16-Set ExecBatch allocates %v times, want 0", name, n)
		}
		if n := testing.AllocsPerRun(200, func() { kv.MGet(keys); kv.ExecBatch(sets) }); n != 0 { //nolint:errcheck
			t.Errorf("%s: MGet and a batch of stores in turn allocate %v times, want 0", name, n)
		}

		checkMGet := func(when string, res []core.GetResult, err error) {
			t.Helper()
			if err != nil || len(res) != len(keys) {
				t.Fatalf("%s: MGet %s: %d results, %v", name, when, len(res), err)
			}
			for i := range keys {
				if !res[i].Found || !bytes.Equal(res[i].Value, want(i)) {
					t.Fatalf("%s: MGet result %d %s: %+v", name, i, when, res[i])
				}
			}
		}
		checkGets := func(when string, res []memcached.BatchResult, err error) {
			t.Helper()
			if err != nil || len(res) != len(gets) {
				t.Fatalf("%s: ExecBatch %s: %d results, %v", name, when, len(res), err)
			}
			for i := range keys {
				if r := res[len(keys)-1-i]; r.Err != nil || !bytes.Equal(r.Value, want(i)) {
					t.Fatalf("%s: ExecBatch result for key %d %s: %q, %v", name, i, when, r.Value, r.Err)
				}
			}
		}
		// Lent until the next batch: single ops in between leave an
		// earlier batch's results alone.
		single := func() {
			if _, _, err := kv.Get(keys[3]); err != nil {
				t.Fatal(err)
			}
			if err := kv.Set([]byte("between"), bytes.Repeat([]byte("x"), 128), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		first, err := kv.MGet(keys)
		single()
		checkMGet("after a Get and a Set", first, err)
		second, err := kv.ExecBatch(gets)
		single()
		checkGets("after a Get and a Set", second, err)

		// A caller may scribble over what it was lent; the next batch is
		// still right, whichever kind ran before it.
		scribble := []byte("scribbled")
		for i := range second {
			for j := range second[i].Value {
				second[i].Value[j] = 0xee
			}
			second[i] = memcached.BatchResult{Value: scribble, Flags: 7, CAS: 7, Num: 7, Exptime: 7, Err: errors.New("scribbled")}
		}
		first, err = kv.MGet(keys)
		checkMGet("after the last results were scribbled over", first, err)
		for i := range first {
			for j := range first[i].Value {
				first[i].Value[j] = 0xee
			}
			first[i] = core.GetResult{Value: scribble, Flags: 7, CAS: 7, Found: true}
		}
		second, err = kv.ExecBatch(gets)
		checkGets("after the last results were scribbled over", second, err)
		if err := kv.Delete(keys[5]); err != nil {
			t.Fatal(err)
		}
		for i := range second {
			second[i] = memcached.BatchResult{Value: scribble, Err: errors.New("scribbled")}
		}
		if res, err := kv.MGet(keys); err != nil || res[5].Found || res[5].Value != nil || res[5].Flags != 0 || res[5].CAS != 0 {
			t.Fatalf("%s: a miss in a scribbled-over frame = %+v, %v; want a bare miss", name, res[5], err)
		}
		if err := kv.Set(keys[5], want(5), 0, 0); err != nil {
			t.Fatal(err)
		}

		// What a session keeps follows the batch in hand: the slots of a
		// batch of 1024 and the buffer of a 1 MiB value are not kept for
		// the small batches after them.
		many, manyGets := make([][]byte, 1024), make([]memcached.BatchOp, 1024)
		for i := range many {
			many[i], manyGets[i] = keys[i%len(keys)], gets[i%len(gets)]
		}
		if res, err := kv.MGet(many); err != nil || len(res) != len(many) || !res[1023].Found {
			t.Fatalf("%s: 1024-key MGet: %d results, %v", name, len(res), err)
		}
		if res, err := kv.MGet(keys); err != nil || cap(res) > 4*len(keys) {
			t.Errorf("%s: a 64-key MGet after a 1024-key one returns %d slots of %d, %v", name, len(res), cap(res), err)
		}
		if res, err := kv.ExecBatch(manyGets); err != nil || len(res) != len(manyGets) {
			t.Fatalf("%s: 1024-Get ExecBatch: %d results, %v", name, len(res), err)
		}
		if res, err := kv.ExecBatch(gets); err != nil || cap(res) > 4*len(gets) {
			t.Errorf("%s: a 64-Get ExecBatch after a 1024-Get one returns %d slots of %d, %v", name, len(res), cap(res), err)
		}
		huge := []byte("huge")
		if err := kv.Set(huge, make([]byte, 1<<20), 0, 0); err != nil {
			t.Fatal(err)
		}
		var freed atomic.Bool
		func() {
			res, err := kv.MGet([][]byte{huge})
			if err != nil || len(res[0].Value) != 1<<20 {
				t.Fatalf("%s: MGet of a 1 MiB value: %d bytes, %v", name, len(res[0].Value), err)
			}
			// The only value of its batch starts the buffer it was read into.
			runtime.SetFinalizer(&res[0].Value[0], func(*byte) { freed.Store(true) })
		}()
		for i := 0; i < 4; i++ {
			first, err = kv.MGet(keys)
			checkMGet("after a 1 MiB one", first, err)
		}
		for i := 0; i < 100 && !freed.Load(); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if !freed.Load() {
			t.Errorf("%s: small MGets after a 1 MiB one still keep its buffer", name)
		}
		if err := kv.Delete(huge); err != nil {
			t.Fatal(err)
		}
	}
}

// wireScript is a command sequence that visits every keyed verb with
// every outcome, the quiet variants, a multi-key get and the admin verbs,
// one element per command, in the given protocol.
func wireScript(t *testing.T, binary bool) [][]byte {
	t.Helper()
	k := func(s string) []byte { return []byte(s) }
	cmds := []protocol.Command{
		{Op: protocol.OpSet, Key: k("a"), Value: k("hello"), Flags: 5},
		{Op: protocol.OpGet, Key: k("a")},
		{Op: protocol.OpGet, Key: k("missing")},
		{Op: protocol.OpAdd, Key: k("a"), Value: k("x")},
		{Op: protocol.OpAdd, Key: k("n"), Value: k("41")},
		{Op: protocol.OpReplace, Key: k("a"), Value: k("world"), Flags: 6},
		{Op: protocol.OpReplace, Key: k("missing"), Value: k("x")},
		{Op: protocol.OpAppend, Key: k("a"), Value: k("!")},
		{Op: protocol.OpPrepend, Key: k("a"), Value: k(">")},
		{Op: protocol.OpAppend, Key: k("missing"), Value: k("!")},
		{Op: protocol.OpIncr, Key: k("n"), Delta: 1},
		{Op: protocol.OpDecr, Key: k("n"), Delta: 50},
		{Op: protocol.OpIncr, Key: k("a"), Delta: 1},
		{Op: protocol.OpIncr, Key: k("missing"), Delta: 1},
		{Op: protocol.OpCAS, Key: k("a"), Value: k("x"), CAS: 999},
		{Op: protocol.OpCAS, Key: k("missing"), Value: k("x"), CAS: 1},
		{Op: protocol.OpTouch, Key: k("a"), Exptime: 3600},
		{Op: protocol.OpTouch, Key: k("missing"), Exptime: 3600},
		{Op: protocol.OpGAT, Key: k("a"), Exptime: 3600},
		{Op: protocol.OpGAT, Key: k("missing"), Exptime: 3600},
		{Op: protocol.OpSet, Key: k("q"), Value: k("z"), Quiet: true},
		{Op: protocol.OpGet, Key: k("q"), Quiet: true},
		{Op: protocol.OpGet, Key: k("missing"), Quiet: true},
		{Op: protocol.OpSet, Key: k(strings.Repeat("k", core.MaxKeyLen)), Value: k("edge")},
		{Op: protocol.OpDelete, Key: k("a")},
		{Op: protocol.OpDelete, Key: k("a")},
		{Op: protocol.OpVersion},
		{Op: protocol.OpGet, Key: k("n")},
		{Op: protocol.OpFlushAll},
		{Op: protocol.OpGet, Key: k("n")},
	}
	var script [][]byte
	for i := range cmds {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		var err error
		if binary {
			err = protocol.WriteBinaryCommand(w, &cmds[i])
		} else {
			err = protocol.WriteASCIICommand(w, &cmds[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		w.Flush()
		script = append(script, buf.Bytes())
	}
	if binary {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		protocol.WriteBinaryCommand(w, &protocol.Command{Op: protocol.OpNoop}) //nolint:errcheck
		w.Flush()
		return append(script, buf.Bytes())
	}
	// ASCII only: a multi-key get, and a key the parser lets through but
	// the store refuses.
	return append(script,
		k("set m 0 0 1\r\nv\r\n"),
		k("get m missing a m\r\n"),
		k("get "+strings.Repeat("k", core.MaxKeyLen+1)+"\r\n"))
}

// TestWireLoneVsPipelined: each command of wireScript sent alone (one
// connection each, so every one takes the dispatcher's lone path) and the
// whole script sent as one pipeline to a fresh store (so keyed stretches
// ride batches) must produce byte-identical reply streams, on the hybrid
// server and the cluster proxy, in both protocols.
func TestWireLoneVsPipelined(t *testing.T) {
	cfg := memcached.Config{HeapBytes: 16 << 20, HashPower: 10}
	frontEnds := map[string]func(t *testing.T, sock string) net.Addr{
		"Bookkeeper.ServeRemote": func(t *testing.T, sock string) net.Addr {
			book, err := memcached.CreateStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { book.Shutdown() })
			rs, err := book.ServeRemote("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rs.Close)
			return rs.Addr()
		},
		"Cluster.ServeRemote": func(t *testing.T, sock string) net.Addr {
			c, err := memcached.CreateCluster(memcached.ClusterConfig{Shards: 4, Store: cfg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Shutdown() })
			cs, err := c.ServeRemote("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cs.Close)
			return cs.Addr()
		},
	}
	for name, start := range frontEnds {
		for _, binary := range []bool{false, true} {
			proto := map[bool]string{false: "ascii", true: "binary"}[binary]
			t.Run(name+"/"+proto, func(t *testing.T) {
				script := wireScript(t, binary)
				dir := t.TempDir()
				var lone []byte
				addr := start(t, filepath.Join(dir, "lone.sock"))
				for _, cmd := range script {
					lone = append(lone, wireExchange(t, addr, cmd, true)...)
				}
				piped := wireExchange(t, start(t, filepath.Join(dir, "piped.sock")), bytes.Join(script, nil), true)
				if !bytes.Equal(lone, piped) {
					t.Errorf("reply streams differ\nlone:      %q\npipelined: %q", lone, piped)
				}
				if len(lone) == 0 {
					t.Error("no replies at all")
				}
			})
		}
	}
}
