package compat

import (
	"path/filepath"
	"testing"

	"plibmc/internal/client"
	"plibmc/internal/server"
	"plibmc/memcached"
)

func plibSt(t *testing.T) *St {
	t.Helper()
	b, err := memcached.CreateStore(memcached.Config{HeapBytes: 8 << 20, HashPower: 9, NumItemLocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	m := Create()
	m.UsePlib(s)
	return m
}

func socketSt(t *testing.T) *St {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "mc.sock")
	srv, err := server.New(server.Config{Network: "unix", Addr: sock, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	c, err := client.Dial("unix", sock, client.Binary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	m := Create()
	m.UseSocket(c)
	return m
}

// testClassicAPI runs the same drop-in calls against any backend: the
// paper's claim is that existing applications work unchanged.
func testClassicAPI(t *testing.T, m *St) {
	t.Helper()
	if rc := m.Set([]byte("k"), []byte("v1"), 0, 7); rc != Success {
		t.Fatalf("set = %v", rc)
	}
	v, flags, rc := m.Get([]byte("k"))
	if rc != Success || string(v) != "v1" || flags != 7 {
		t.Fatalf("get = %q %d %v", v, flags, rc)
	}
	if _, _, rc := m.Get([]byte("missing")); rc != NotFound {
		t.Fatalf("miss = %v", rc)
	}
	if rc := m.Add([]byte("k"), []byte("x"), 0, 0); rc != NotStored {
		t.Fatalf("add existing = %v", rc)
	}
	if rc := m.Replace([]byte("nope"), []byte("x"), 0, 0); rc != NotStored {
		t.Fatalf("replace missing = %v", rc)
	}
	if rc := m.Append([]byte("k"), []byte("+")); rc != Success {
		t.Fatalf("append = %v", rc)
	}
	if rc := m.Prepend([]byte("k"), []byte("-")); rc != Success {
		t.Fatalf("prepend = %v", rc)
	}
	v, _, _ = m.Get([]byte("k"))
	if string(v) != "-v1+" {
		t.Fatalf("value = %q", v)
	}
	m.Set([]byte("n"), []byte("9"), 0, 0)
	if n, rc := m.Increment([]byte("n"), 1); rc != Success || n != 10 {
		t.Fatalf("incr = %d %v", n, rc)
	}
	if n, rc := m.Decrement([]byte("n"), 100); rc != Success || n != 0 {
		t.Fatalf("decr = %d %v", n, rc)
	}
	if rc := m.Touch([]byte("k"), 600); rc != Success {
		t.Fatalf("touch = %v", rc)
	}
	if rc := m.Delete([]byte("k")); rc != Success {
		t.Fatalf("delete = %v", rc)
	}
	if rc := m.Delete([]byte("k")); rc != NotFound {
		t.Fatalf("re-delete = %v", rc)
	}
	called := false
	m.GetWithCallback([]byte("n"), func(v []byte, _ uint32, rc ReturnT) {
		called = true
		if rc != Success || string(v) != "0" {
			t.Errorf("callback: %q %v", v, rc)
		}
	})
	if !called {
		t.Fatal("callback not invoked synchronously")
	}
	// Batched multi-get.
	m.Set([]byte("a"), []byte("1"), 0, 0)
	m.Set([]byte("b"), []byte("2"), 0, 0)
	got, rc2 := m.MGet([][]byte{[]byte("a"), []byte("b"), []byte("missing")})
	if rc2 != Success || len(got) != 2 || string(got["a"]) != "1" || string(got["b"]) != "2" {
		t.Fatalf("mget = %v, %v", got, rc2)
	}
	if rc := m.Flush(); rc != Success {
		t.Fatalf("flush = %v", rc)
	}
}

func TestClassicAPIOverPlib(t *testing.T)   { testClassicAPI(t, plibSt(t)) }
func TestClassicAPIOverSocket(t *testing.T) { testClassicAPI(t, socketSt(t)) }

// St.MGet over the plib backend batches: the whole key set crosses the
// gate once (ISSUE 6 satellite).
func TestMGetSingleCrossingOverPlib(t *testing.T) {
	b, err := memcached.CreateStore(memcached.Config{HeapBytes: 8 << 20, HashPower: 9, NumItemLocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	m := Create()
	m.UsePlib(s)
	const n = 64
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte{'k', byte('a' + i/26), byte('a' + i%26)}
		if rc := m.Set(keys[i], []byte("v"), 0, 0); rc != Success {
			t.Fatalf("set %d = %v", i, rc)
		}
	}
	before := b.Library().Metrics().Crossings
	got, rc := m.MGet(keys)
	if rc != Success || len(got) != n {
		t.Fatalf("mget = %d keys, %v", len(got), rc)
	}
	if after := b.Library().Metrics().Crossings; after-before != 1 {
		t.Fatalf("MGet of %d keys took %d crossings, want 1", n, after-before)
	}
}

func TestNetworkConfigNoOps(t *testing.T) {
	m := plibSt(t)
	// Default: accepted and ignored (drop-in behaviour).
	if rc := m.AddServer("localhost", 11211); rc != Success {
		t.Fatalf("AddServer = %v", rc)
	}
	if rc := m.SetBehavior(BehaviorBinaryProtocol, 1); rc != Success {
		t.Fatalf("SetBehavior = %v", rc)
	}
	// Strict: flagged as errors "to facilitate migration".
	m.SetStrict(true)
	if rc := m.AddServer("localhost", 11211); rc != NotSupported {
		t.Fatalf("strict AddServer = %v", rc)
	}
	if rc := m.SetBehavior(BehaviorTCPNoDelay, 1); rc != NotSupported {
		t.Fatalf("strict SetBehavior = %v", rc)
	}
	// Socket backend keeps accepting them even in strict mode.
	ms := socketSt(t)
	ms.SetStrict(true)
	if rc := ms.AddServer("localhost", 11211); rc != Success {
		t.Fatalf("socket AddServer = %v", rc)
	}
}

func TestUnconnectedHandle(t *testing.T) {
	m := Create()
	if _, _, rc := m.Get([]byte("k")); rc != ClientError {
		t.Fatalf("get on unconnected = %v", rc)
	}
	if rc := m.Set([]byte("k"), []byte("v"), 0, 0); rc != ClientError {
		t.Fatalf("set on unconnected = %v", rc)
	}
}

func TestReturnStrings(t *testing.T) {
	for _, rc := range []ReturnT{Success, Failure, NotFound, NotStored,
		DataExists, ClientError, ServerError, NotSupported, BadKeyProvided, E2Big, ReturnT(99)} {
		if rc.String() == "" {
			t.Fatalf("empty name for %d", int(rc))
		}
	}
}

func TestBadKeyAndBigValue(t *testing.T) {
	m := plibSt(t)
	long := make([]byte, 300)
	if rc := m.Set(long, []byte("v"), 0, 0); rc != BadKeyProvided {
		t.Fatalf("long key = %v", rc)
	}
	big := make([]byte, 2<<20)
	if rc := m.Set([]byte("k"), big, 0, 0); rc != E2Big {
		t.Fatalf("big value = %v", rc)
	}
}

// A round trip that fails is a Failure, never an outcome: on a closed
// connection no call reads as a miss (NOTFOUND) or a refusal (NOT_STORED).
func TestSocketFailureIsNotAnOutcome(t *testing.T) {
	m := socketSt(t)
	m.backend.(sockBackend).c.Close()
	k := []byte("k")
	if _, _, rc := m.Get(k); rc != Failure {
		t.Fatalf("get on a closed connection = %v", rc)
	}
	if _, _, rc := m.GAT(k, 0); rc != Failure {
		t.Fatalf("gat on a closed connection = %v", rc)
	}
	if _, rc := m.Increment(k, 1); rc != Failure {
		t.Fatalf("incr on a closed connection = %v", rc)
	}
	for name, call := range map[string]func() ReturnT{
		"delete":  func() ReturnT { return m.Delete(k) },
		"add":     func() ReturnT { return m.Add(k, []byte("v"), 0, 0) },
		"replace": func() ReturnT { return m.Replace(k, []byte("v"), 0, 0) },
		"append":  func() ReturnT { return m.Append(k, []byte("v")) },
		"touch":   func() ReturnT { return m.Touch(k, 0) },
		"flush":   m.Flush,
	} {
		if rc := call(); rc != Failure {
			t.Fatalf("%s on a closed connection = %v", name, rc)
		}
	}
}
