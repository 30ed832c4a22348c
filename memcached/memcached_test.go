package memcached

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"plibmc/internal/client"
	"plibmc/internal/hodor"
	"plibmc/internal/proc"
)

func newTestStore(t testing.TB) *Bookkeeper {
	t.Helper()
	b, err := CreateStore(Config{HeapBytes: 16 << 20, HashPower: 10, NumItemLocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestSession(t testing.TB, b *Bookkeeper) *Session {
	t.Helper()
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// A full cache makes room for a new session's arena page the way it does
// for an item, by evicting: sessions open after the store fills up, as a
// socket server's do whenever a connection comes in. The values here are
// items of the page's own size class, so evicting one frees a page.
func TestSessionOpensOnFullCache(t *testing.T) {
	b, err := CreateStore(Config{HeapBytes: 4 << 20, HashPower: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 3500)
	for i := 0; b.Stats().Evictions < 100; i++ {
		if err := s.Set([]byte(fmt.Sprintf("fill-%d", i)), val, 0, 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := cp.NewSession(); err != nil {
			t.Fatalf("session %d on a full cache: %v", i+1, err)
		}
	}
}

// TestSessionChurn: one client process opening, using and closing a
// session over and over leaves nothing behind in the gate. Every call is
// still counted, a closed session is unlinked, and the liveness oracle
// answers for a closed session's token from the process registry: alive
// while its process lives, dead once it is killed.
func TestSessionChurn(t *testing.T) {
	const cycles = 20000
	b := newTestStore(t)
	defer b.Shutdown()
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	before := b.Library().Metrics().Calls
	var last *Session
	for i := 0; i < cycles; i++ {
		s, err := cp.NewSession()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if err := s.Set([]byte(fmt.Sprintf("churn-%d", i%64)), []byte("v"), 0, 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		s.Close()
		last = s
	}
	if calls := b.Library().Metrics().Calls - before; calls != cycles {
		t.Fatalf("library counted %d calls, want %d", calls, cycles)
	}
	if err := last.Set([]byte("k"), []byte("v"), 0, 0); !errors.Is(err, hodor.ErrNotLinked) {
		t.Fatalf("call on a closed session = %v, want ErrNotLinked", err)
	}
	tok := last.Thread().LockOwner()
	if _, defunct := b.lib.TokenState(tok); defunct {
		t.Fatal("closed session of a live process reads dead")
	}
	cp.Kill()
	if _, defunct := b.lib.TokenState(tok); !defunct {
		t.Fatal("closed session of a killed process reads alive")
	}
}

func TestSessionBasicOps(t *testing.T) {
	b := newTestStore(t)
	s := newTestSession(t, b)

	if err := s.Set([]byte("k"), []byte("v"), 3, 0); err != nil {
		t.Fatal(err)
	}
	v, flags, err := s.Get([]byte("k"))
	if err != nil || string(v) != "v" || flags != 3 {
		t.Fatalf("get = %q %d %v", v, flags, err)
	}
	if _, _, err := s.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss = %v", err)
	}
	if err := s.Add([]byte("k"), []byte("x"), 0, 0); !errors.Is(err, ErrExists) {
		t.Fatalf("add = %v", err)
	}
	if err := s.Replace([]byte("k"), []byte("v2"), 0, 0); err != nil {
		t.Fatal(err)
	}
	_, _, cas, err := s.Gets([]byte("k"))
	if err != nil || cas == 0 {
		t.Fatalf("gets cas = %d, %v", cas, err)
	}
	if err := s.CAS([]byte("k"), []byte("v3"), 0, 0, cas+1); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("stale cas = %v", err)
	}
	if err := s.CAS([]byte("k"), []byte("v3"), 0, 0, cas); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("k"), []byte("+")); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepend([]byte("k"), []byte("-")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Get([]byte("k"))
	if string(v) != "-v3+" {
		t.Fatalf("value = %q", v)
	}
	s.Set([]byte("n"), []byte("41"), 0, 0)
	if n, err := s.Increment([]byte("n"), 1); err != nil || n != 42 {
		t.Fatalf("incr = %d, %v", n, err)
	}
	if n, err := s.Decrement([]byte("n"), 100); err != nil || n != 0 {
		t.Fatalf("decr = %d, %v", n, err)
	}
	if err := s.Touch([]byte("k"), 9999); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Gets == 0 || st.Sets == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get([]byte("n")); !errors.Is(err, ErrNotFound) {
		t.Fatal("flush did not clear")
	}
}

// GetAsync is §3.1's shim: a direct call completes immediately, so the
// callback has run — with the value, the flags, or the miss — by the time
// GetAsync returns, and nothing is left queued for a later operation.
func TestAsyncCallbackImmediate(t *testing.T) {
	b := newTestStore(t)
	s := newTestSession(t, b)
	s.Set([]byte("k0"), []byte("async0"), 7, 0)
	calls := 0
	s.GetAsync([]byte("k0"), func(v []byte, flags uint32, err error) {
		calls++
		if err != nil || string(v) != "async0" || flags != 7 {
			t.Errorf("hit callback got %q, %d, %v", v, flags, err)
		}
	})
	if calls != 1 {
		t.Fatalf("hit callback ran %d times before GetAsync returned, want 1", calls)
	}
	s.GetAsync([]byte("absent"), func(v []byte, _ uint32, err error) {
		calls++
		if !errors.Is(err, ErrNotFound) || v != nil {
			t.Errorf("miss callback got %q, %v", v, err)
		}
	})
	if calls != 2 {
		t.Fatalf("miss callback ran %d times, want once", calls-1)
	}
	before := b.Library().Metrics().Crossings
	if _, _, err := s.Get([]byte("k0")); err != nil {
		t.Fatal(err)
	}
	if after := b.Library().Metrics().Crossings; after != before+1 || calls != 2 {
		t.Fatalf("a later Get took %d crossings and re-ran callbacks (%d calls)", after-before, calls)
	}
}

// MGet rides the batch path: one trampoline crossing covers the whole key
// set, not one per key (ISSUE 6 satellite).
func TestMGetSingleCrossing(t *testing.T) {
	b := newTestStore(t)
	s := newTestSession(t, b)
	const n = 64
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mk%02d", i))
		if i%2 == 0 {
			if err := s.Set(keys[i], []byte(fmt.Sprintf("val%02d", i)), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := b.Library().Metrics().Crossings
	res, err := s.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	after := b.Library().Metrics().Crossings
	if after-before != 1 {
		t.Fatalf("MGet of %d keys took %d crossings, want 1", n, after-before)
	}
	for i, r := range res {
		if want := i%2 == 0; r.Found != want {
			t.Fatalf("key %d found=%v, want %v", i, r.Found, want)
		}
		if r.Found && string(r.Value) != fmt.Sprintf("val%02d", i) {
			t.Fatalf("key %d value = %q", i, r.Value)
		}
	}
}

// A batch split over shards gets, slot for slot, what its ops get one by
// one, each shard's share running through the key pass (one capture and
// one hash per key, its buckets touched before the first probe): keys
// repeat within and across shards, and one too long to store fails alone.
func TestExecBatchKeyPassAcrossShards(t *testing.T) {
	var ops []BatchOp
	for i := 0; i < 48; i++ {
		k := []byte(fmt.Sprintf("kp%02d", i%12))
		switch i % 6 {
		case 0:
			ops = append(ops, BatchOp{Code: BatchSet, Key: k, Value: []byte(fmt.Sprint(i)), Flags: uint32(i)})
		case 1, 4:
			ops = append(ops, BatchOp{Code: BatchGet, Key: k})
		case 2:
			ops = append(ops, BatchOp{Code: BatchIncr, Key: k, Delta: 7})
		case 3:
			ops = append(ops, BatchOp{Code: BatchAppend, Key: k, Value: []byte("+")})
		case 5:
			ops = append(ops, BatchOp{Code: BatchDelete, Key: k})
		}
	}
	ops[20] = BatchOp{Code: BatchGet, Key: bytes.Repeat([]byte("x"), 251)}
	batched := newClusterSession(t, newTestCluster(t, 4, ClusterConfig{}))
	lone := newClusterSession(t, newTestCluster(t, 4, ClusterConfig{}))
	got, err := batched.ExecBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		w := *lone.exec(ops[i])
		g := got[i]
		if !bytes.Equal(g.Value, w.Value) || g.Flags != w.Flags || g.CAS != w.CAS || g.Num != w.Num || !errors.Is(g.Err, w.Err) || !errors.Is(w.Err, g.Err) {
			t.Errorf("op %d (code %d %q): batch %+v, lone %+v", i, ops[i].Code, ops[i].Key, g, w)
		}
	}
	if !errors.Is(got[20].Err, ErrKeyTooLong) {
		t.Errorf("long key: %v", got[20].Err)
	}
	var keys [][]byte
	for i := 0; i < 12; i++ {
		keys = append(keys, []byte(fmt.Sprintf("kp%02d", i)))
	}
	a, errA := batched.MGet(keys)
	b, errB := lone.MGet(keys)
	if errA != nil || errB != nil || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("stores differ after the batch:\n%v %v\n%v %v", a, errA, b, errB)
	}
}

func TestCrossProcessSharing(t *testing.T) {
	// Two independent client processes (distinct UIDs, distinct heap
	// bases) share one store through the protected library.
	b := newTestStore(t)
	cp1, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := b.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	if cp1.Process().View().Base() == cp2.Process().View().Base() {
		t.Fatal("processes should map the heap at different addresses")
	}
	s1, _ := cp1.NewSession()
	s2, _ := cp2.NewSession()
	defer s1.Close()
	defer s2.Close()
	if err := s1.Set([]byte("shared"), []byte("hello from p1"), 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _, err := s2.Get([]byte("shared"))
	if err != nil || string(v) != "hello from p1" {
		t.Fatalf("p2 sees %q, %v", v, err)
	}
}

func TestProtectionOutsideLibrary(t *testing.T) {
	// Application code cannot read the store's heap directly; the same
	// bytes are readable from inside a library call.
	b := newTestStore(t)
	cp, _ := b.NewClientProcess(1000)
	s, _ := cp.NewSession()
	defer s.Close()
	s.Set([]byte("secret"), []byte("cleartext"), 0, 0)

	g := b.Library().Domain.Guard()
	th := s.Thread()
	if _, err := g.Load64(th.PKRU(), 0); err == nil {
		t.Fatal("application thread read protected heap outside a call")
	}
	buf := make([]byte, 64)
	if err := g.ReadBytes(th.PKRU(), 4096, buf); err == nil {
		t.Fatal("application thread read heap pages outside a call")
	}
}

func TestEntryPointsRegistered(t *testing.T) {
	b := newTestStore(t)
	entries := b.Library().Entries()
	if len(entries) < len(entryNames) {
		t.Fatalf("entries = %v", entries)
	}
}

func TestLoaderRejectsWrongOwnerInit(t *testing.T) {
	// Library init must observe the owner's EUID; the registered OnInit
	// enforces it, so a tampered loader path would fail.
	b := newTestStore(t)
	if _, err := b.NewClientProcess(2000); err != nil {
		t.Fatalf("legitimate load should succeed: %v", err)
	}
}

func TestKilledClientCallCompletes(t *testing.T) {
	b := newTestStore(t)
	cp, _ := b.NewClientProcess(1000)
	s, _ := cp.NewSession()
	defer s.Close()
	s.Set([]byte("k"), []byte("before kill"), 0, 0)
	cp.Kill()
	// New calls are refused with the kill error.
	if err := s.Set([]byte("k2"), []byte("x"), 0, 0); err == nil {
		t.Fatal("killed process should not start new calls")
	}
	// Another process still sees consistent data: no locks were leaked.
	cp2, _ := b.NewClientProcess(1001)
	s2, _ := cp2.NewSession()
	defer s2.Close()
	v, _, err := s2.Get([]byte("k"))
	if err != nil || string(v) != "before kill" {
		t.Fatalf("store corrupted by kill: %q, %v", v, err)
	}
}

func TestKillDuringInFlightCall(t *testing.T) {
	// A thread killed mid-call completes its operation (Hodor guarantee);
	// the store stays consistent under concurrent load.
	b := newTestStore(t)
	cp, _ := b.NewClientProcess(1000)
	victim, _ := cp.NewSession()

	cp2, _ := b.NewClientProcess(1001)
	worker, _ := cp2.NewSession()
	defer worker.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Many sets; the kill lands somewhere in the middle.
		for i := 0; i < 2000; i++ {
			if err := victim.Set([]byte(fmt.Sprintf("v-%d", i)), []byte("data"), 0, 0); err != nil {
				return // the kill took effect between calls
			}
		}
	}()
	time.Sleep(time.Millisecond)
	cp.Kill()
	wg.Wait()

	// Library must not be poisoned: the victim died between calls, never
	// inside one.
	if b.Library().Poisoned() {
		t.Fatal("kill outside library code must not poison the store")
	}
	// The other process can operate on everything.
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("v-%d", i))
		_, _, err := worker.Get(k)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %s: %v", k, err)
		}
	}
	if err := worker.Set([]byte("after"), []byte("fine"), 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestNoHodorSessionMatchesSemantics(t *testing.T) {
	b := newTestStore(t)
	cp, _ := b.NewClientProcess(1000)
	s, _ := cp.NewSessionNoHodor()
	defer s.Close()
	if err := s.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("no-hodor get = %q, %v", v, err)
	}
	// No wrpkru executions should have occurred for these two calls.
	if n := cp.Process().WRPKRUCount(); n != 0 {
		t.Fatalf("no-hodor session executed wrpkru %d times", n)
	}
	s2, _ := cp.NewSession()
	defer s2.Close()
	s2.Get([]byte("k"))
	if n := cp.Process().WRPKRUCount(); n != 2 {
		t.Fatalf("trampolined get should wrpkru twice, saw %d", n)
	}
}

func TestShutdownAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.img")
	b, err := CreateStore(Config{HeapBytes: 8 << 20, Path: path, HashPower: 9, NumItemLocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, b)
	for i := 0; i < 200; i++ {
		if err := s.Set([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("val-%d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := b.Shutdown(); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenStore(Config{HeapBytes: 8 << 20, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestSession(t, b2)
	for i := 0; i < 200; i++ {
		v, _, err := s2.Get([]byte(fmt.Sprintf("key-%d", i)))
		if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("key %d after reopen: %q, %v", i, v, err)
		}
	}
	// OpenStore without a path is an error; with a missing file too.
	if _, err := OpenStore(Config{}); err == nil {
		t.Fatal("OpenStore without path should fail")
	}
	if _, err := OpenStore(Config{Path: filepath.Join(t.TempDir(), "nope")}); err == nil {
		t.Fatal("OpenStore of missing file should fail")
	}
}

func TestMaintenanceLoop(t *testing.T) {
	b := newTestStore(t)
	now := int64(1000)
	b.Store().SetClock(func() int64 { return now })
	s := newTestSession(t, b)
	for i := 0; i < 50; i++ {
		s.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v"), 0, 10)
	}
	now += 100
	rep := b.RunMaintenanceOnce()
	if rep.Expired != 50 {
		t.Fatalf("maintenance expired %d, want 50", rep.Expired)
	}
	b.StartMaintenance(5 * time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	b.StopMaintenance()
	// Idempotent stop.
	b.StopMaintenance()
}

func TestHybridRemoteInterface(t *testing.T) {
	// Paper §6: remote clients over sockets, local clients via Hodor,
	// one store.
	b := newTestStore(t)
	sock := filepath.Join(t.TempDir(), "hybrid.sock")
	rs, err := b.ServeRemote("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	local := newTestSession(t, b)
	if err := local.Set([]byte("from-local"), []byte("via hodor"), 0, 0); err != nil {
		t.Fatal(err)
	}

	for _, proto := range []client.Protocol{client.Binary, client.ASCII} {
		remote, err := client.Dial("unix", sock, proto)
		if err != nil {
			t.Fatal(err)
		}
		v, _, _, err := remote.Get([]byte("from-local"))
		if err != nil || string(v) != "via hodor" {
			t.Fatalf("remote (proto %d) sees %q, %v", proto, v, err)
		}
		if err := remote.Set([]byte("from-remote"), []byte("via socket"), 0, 0); err != nil {
			t.Fatal(err)
		}
		remote.Close()
	}
	v, _, err := local.Get([]byte("from-remote"))
	if err != nil || string(v) != "via socket" {
		t.Fatalf("local sees %q, %v", v, err)
	}
}

// Pipelined ASCII commands over the hybrid socket ride one batched
// dispatch: back-to-back commands and multi-key gets batch for free.
func TestHybridPipelineBatches(t *testing.T) {
	b := newTestStore(t)
	sock := filepath.Join(t.TempDir(), "pipeline.sock")
	rs, err := b.ServeRemote("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	c, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before, err := newTestSession(t, b).Stats()
	if err != nil {
		t.Fatal(err)
	}
	// One write carries a whole pipeline: two sets, a multi-key get, an
	// incr on a non-numeric value (per-op error isolation), and a miss.
	pipeline := "set pa 0 0 2\r\nv1\r\n" +
		"set pb 0 0 2\r\nv2\r\n" +
		"get pa pb\r\n" +
		"incr pa 1\r\n" +
		"get nothere\r\n"
	if _, err := c.Write([]byte(pipeline)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	// VALUE lines end with the item's CAS, which varies; match by prefix.
	want := []string{
		"STORED", "STORED",
		"VALUE pa 0 2", "v1", "VALUE pb 0 2", "v2", "END",
		"CLIENT_ERROR cannot increment or decrement non-numeric value",
		"END",
	}
	for i, w := range want {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		got := strings.TrimRight(line, "\r\n")
		if !strings.HasPrefix(got, w) {
			t.Fatalf("reply %d = %q, want prefix %q", i, got, w)
		}
	}
	after, err := newTestSession(t, b).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Batches == before.Batches {
		t.Fatal("pipelined commands did not ride a batched dispatch")
	}
	// 2 sets + 2 get keys + incr + miss = 6 ops in the batch.
	if n := after.BatchedOps - before.BatchedOps; n < 6 {
		t.Fatalf("batched ops = %d, want >= 6", n)
	}
}

func TestConcurrentSessionsManyProcesses(t *testing.T) {
	b, err := CreateStore(Config{HeapBytes: 64 << 20, HashPower: 12, NumItemLocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	const procs = 4
	const threadsPer = 2
	const iters = 1500
	var wg sync.WaitGroup
	errCh := make(chan error, procs*threadsPer)
	for p := 0; p < procs; p++ {
		cp, err := b.NewClientProcess(1000 + p)
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < threadsPer; th++ {
			s, err := cp.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(id int, s *Session) {
				defer wg.Done()
				defer s.Close()
				for i := 0; i < iters; i++ {
					k := []byte(fmt.Sprintf("key-%d", (id*7+i)%300))
					if i%3 == 0 {
						if err := s.Set(k, []byte(fmt.Sprintf("val-%d-%d", id, i)), 0, 0); err != nil {
							errCh <- err
							return
						}
					} else {
						if _, _, err := s.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
							errCh <- err
							return
						}
					}
				}
			}(p*threadsPer+th, s)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := b.Stats()
	want := uint64(procs * threadsPer * iters)
	if st.Gets+st.Sets != want {
		t.Fatalf("ops recorded %d, want %d", st.Gets+st.Sets, want)
	}
}

func TestErrKilledType(t *testing.T) {
	e := &proc.ErrKilled{PID: 3}
	if e.Error() == "" {
		t.Fatal("empty ErrKilled")
	}
}

// The buffer a batch's values share follows the batch in hand, not the
// largest batch the session ever ran: a 2 MiB MGet must not make every
// later one-key MGet of a one-byte value allocate (and zero) 2 MiB.
func TestBatchValueBufferTracksBatch(t *testing.T) {
	s := newTestSession(t, newTestStore(t))
	big := make([][]byte, 32)
	for i := range big {
		big[i] = []byte(fmt.Sprintf("big-%02d", i))
		if err := s.Set(big[i], bytes.Repeat([]byte{byte(i)}, 64<<10), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	small := [][]byte{[]byte("small")}
	if err := s.Set(small[0], []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if res, err := s.MGet(big); err != nil || !res[31].Found || len(res[31].Value) != 64<<10 {
		t.Fatalf("big MGet: %v", err)
	}
	one := func() {
		if res, err := s.MGet(small); err != nil || string(res[0].Value) != "v" {
			t.Fatalf("one-key MGet = %+v, %v", res, err)
		}
	}
	one() // drops the big batch's buffer
	// Bytes, so MemStats rather than AllocsPerRun; summed over the hundred
	// so that a background goroutine's stray allocation cannot fail it.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		one()
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 100<<10 {
		t.Fatalf("100 one-key MGets after a 2 MiB one allocate %d B, want < 1 KiB each", n)
	}
}
