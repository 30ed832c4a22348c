package plibmc

// Get-and-touch across every layer: core, both wire protocols end to end,
// hybrid mode, the session API, and the classic compat API. GAT is the
// command where atomicity matters — the expiry update and the read must
// happen under one lock — so each layer is checked for both the value and
// the expiry effect.

import (
	"errors"
	"path/filepath"
	"testing"

	"plibmc/internal/client"
	"plibmc/internal/core"
	"plibmc/internal/ralloc"
	"plibmc/internal/server"
	"plibmc/internal/shm"
	"plibmc/memcached"
	"plibmc/memcached/compat"
)

func TestGATCore(t *testing.T) {
	h := shm.New(1 << 22)
	a, _ := ralloc.Format(h)
	s, err := core.Create(a, core.Options{HashPower: 8, NumItemLocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1000)
	s.SetClock(func() int64 { return now })
	c := s.NewCtx(1)
	gat := func(exptime int64) (r core.BatchResult) {
		c.Do(&core.BatchOp{Code: core.BatchGAT, Key: []byte("k"), Exptime: exptime}, &r)
		return r
	}

	if r := gat(50); !errors.Is(r.Err, core.ErrNotFound) {
		t.Fatalf("gat missing = %v", r.Err)
	}
	c.Set([]byte("k"), []byte("v"), 7, 10) // dies at 1010
	now = 1005
	if r := gat(100); r.Err != nil || string(r.Value) != "v" || r.Flags != 7 { // now dies at 1105
		t.Fatalf("gat = %q %d %v", r.Value, r.Flags, r.Err)
	}
	now = 1050 // past the original expiry, inside the extended one
	if _, _, _, err := c.Get([]byte("k")); err != nil {
		t.Fatalf("gat did not extend expiry: %v", err)
	}
	now = 1200
	if _, _, _, err := c.Get([]byte("k")); !errors.Is(err, core.ErrNotFound) {
		t.Fatal("extended expiry should have passed")
	}
}

func TestGATOverWireBothProtocols(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "mc.sock")
	srv, err := server.New(server.Config{Network: "unix", Addr: sock, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	now := int64(5000)
	srv.Store().SetClock(func() int64 { return now })

	for _, proto := range []client.Protocol{client.Binary, client.ASCII} {
		c, err := client.Dial("unix", sock, proto)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Set([]byte("k"), []byte("wire-value"), 3, 10); err != nil {
			t.Fatal(err)
		}
		kv := memcached.NewSocketSession(c)
		v, flags, err := kv.GetAndTouch([]byte("k"), 500)
		if err != nil || string(v) != "wire-value" || flags != 3 {
			t.Fatalf("proto %d: gat = %q %d %v", proto, v, flags, err)
		}
		now += 100 // past original expiry, inside extension
		if _, _, _, err := c.Get([]byte("k")); err != nil {
			t.Fatalf("proto %d: expiry not extended over the wire: %v", proto, err)
		}
		if _, _, err := kv.GetAndTouch([]byte("missing"), 10); !errors.Is(err, memcached.ErrNotFound) {
			t.Fatalf("proto %d: gat on missing = %v", proto, err)
		}
		now = 5000
		c.Close()
	}
}

func TestGATHybridAndSessionAndCompat(t *testing.T) {
	book, err := memcached.CreateStore(memcached.Config{HeapBytes: 16 << 20, HashPower: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	now := int64(9000)
	book.Store().SetClock(func() int64 { return now })

	cp, _ := book.NewClientProcess(1000)
	sess, _ := cp.NewSession()
	defer sess.Close()
	if err := sess.Set([]byte("k"), []byte("v"), 0, 10); err != nil {
		t.Fatal(err)
	}

	// Session API.
	v, _, err := sess.GetAndTouch([]byte("k"), 1000)
	if err != nil || string(v) != "v" {
		t.Fatalf("session gat = %q, %v", v, err)
	}
	now += 500
	if _, _, err := sess.Get([]byte("k")); err != nil {
		t.Fatalf("session gat did not extend: %v", err)
	}

	// Hybrid socket path.
	hsock := filepath.Join(t.TempDir(), "hybrid.sock")
	rs, err := book.ServeRemote("unix", hsock)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rc, err := client.Dial("unix", hsock, client.Binary)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rv, _, err := memcached.NewSocketSession(rc).GetAndTouch([]byte("k"), 2000)
	if err != nil || string(rv) != "v" {
		t.Fatalf("hybrid gat = %q, %v", rv, err)
	}

	// Classic compat API over both backends.
	m := compat.Create()
	m.UsePlib(sess)
	cv, _, rcode := m.GAT([]byte("k"), 3000)
	if rcode != compat.Success || string(cv) != "v" {
		t.Fatalf("compat gat = %q, %v", cv, rcode)
	}
	if _, _, rcode := m.GAT([]byte("missing"), 10); rcode != compat.NotFound {
		t.Fatalf("compat gat missing = %v", rcode)
	}
	m2 := compat.Create()
	m2.UseSocket(rc)
	cv2, _, rcode2 := m2.GAT([]byte("k"), 3000)
	if rcode2 != compat.Success || string(cv2) != "v" {
		t.Fatalf("compat socket gat = %q, %v", cv2, rcode2)
	}
}
