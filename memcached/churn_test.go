package memcached

import (
	"errors"
	"sync"
	"testing"
	"time"

	"plibmc/internal/faultpoint"
	"plibmc/internal/hodor"
)

// census is what a store keeps per client: hodor's registered processes
// and attached sessions, and the bookkeeper's tenant domains.
type census struct{ procs, sessions, tenants int }

func takeCensus(b *Bookkeeper) census {
	c := census{}
	c.procs, c.sessions = b.lib.Census()
	b.tenants.Range(func(any, any) bool { c.tenants++; return true })
	return c
}

// waitRepaired waits until the store has completed n repair passes and is
// serving again.
func waitRepaired(t *testing.T, b *Bookkeeper, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, done := b.LastRepair(); done >= n && !b.lib.Recovering() {
			break
		}
		if b.lib.Poisoned() || time.Now().After(deadline) {
			t.Fatalf("repair %d never completed (poisoned: %v)", n, b.lib.Poisoned())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestProcessChurnForgets: processes that come and go, cleanly or killed,
// some of them crashing inside a call, leave nothing behind. The store's
// process registry, its session table and its tenant domains end where
// they began, and every token of a closed process reads defunct.
func TestProcessChurnForgets(t *testing.T) {
	b, err := CreateStore(Config{HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	survivor := newTestSession(t, b)
	start := takeCensus(b)
	key, val := []byte("churn"), []byte("v")

	for i := 0; i < 10000; i++ {
		cp, err := b.NewClientProcess(1000)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cp.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Set(key, val, 0, 0); err != nil {
			t.Fatal(err)
		}
		tok := s.Thread().LockOwner()
		cp.Close()
		if _, defunct := b.lib.TokenState(tok); !defunct {
			t.Fatalf("cycle %d: a closed process's token reads alive", i)
		}
	}
	if got := takeCensus(b); got != start {
		t.Fatalf("after 10 000 open/Close cycles: %+v, want %+v", got, start)
	}

	defer faultpoint.DisarmAll()
	repairs := 0
	for i := 0; i < 1000; i++ {
		cp, err := b.NewClientProcess(1000)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cp.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if i%10 != 0 {
			cp.Kill()
		} else {
			// Die inside a call with a stripe lock held; the store repairs
			// online and breaks the lock.
			if err := faultpoint.Arm("ops.store.locked", func() {
				cp.Kill()
				panic("churn_test: killed inside a call")
			}); err != nil {
				t.Fatal(err)
			}
			var ce *hodor.CrashError
			if err := s.Set(key, val, 0, 0); !errors.As(err, &ce) {
				t.Fatalf("cycle %d: crashing Set returned %v", i, err)
			}
			repairs++
			waitRepaired(t, b, repairs)
		}
		if err := s.Set(key, val, 0, 0); err == nil {
			t.Fatalf("cycle %d: a killed process's call succeeded", i)
		}
		cp.Close()
		if _, err := cp.NewSession(); err == nil {
			t.Fatalf("cycle %d: a closed process opened a session", i)
		}
	}
	if got := takeCensus(b); got != start {
		t.Fatalf("after 1 000 Kill/Close cycles: %+v, want %+v", got, start)
	}
	if err := survivor.Set(key, []byte("after"), 0, 0); err != nil {
		t.Fatalf("survivor after the churn: %v", err)
	}
}

// TestClusterClientCloseForgets: a cluster client, the cluster's socket
// server and a resize's migrator each leave every shard's registry as
// they found it.
func TestClusterClientCloseForgets(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{VirtualNodes: 8})
	all := func() (out []census) {
		for i := 0; i < c.Shards(); i++ {
			out = append(out, takeCensus(c.Shard(i)))
		}
		return out
	}
	start := all()
	for i := 0; i < 100; i++ {
		cc, err := c.NewClientProcess(1000)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cc.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		cc.Close()
		if _, err := cc.NewSession(); err == nil {
			t.Fatal("a closed cluster client opened a session")
		}
	}
	srv, err := c.ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if got := all(); len(got) != len(start) || got[0] != start[0] || got[1] != start[1] {
		t.Fatalf("after client and server churn: %+v, want %+v", got, start)
	}

	if err := c.Resize(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitResize(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, got := range all() {
		if want := start[0]; got != want {
			t.Errorf("shard %d after a resize: %+v, want %+v", i, got, want)
		}
	}
}

// TestProcessCloseRacesSessionClose: a process's threads close their own
// sessions while the process closes, and a repair's tenant sweep walks
// the same sessions; each session is released exactly once, and the
// registries end where they began.
func TestProcessCloseRacesSessionClose(t *testing.T) {
	b, err := CreateStore(Config{HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	start := takeCensus(b)
	for i := 0; i < 50; i++ {
		cp, err := b.NewClientProcess(1000)
		if err != nil {
			t.Fatal(err)
		}
		sessions := make([]*Session, 4)
		for j := range sessions {
			if sessions[j], err = cp.NewSession(); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 1 {
			cp.Kill() // the sweep below tears down killed tenants too
		}
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func(s *Session) { defer wg.Done(); s.Close() }(s)
		}
		wg.Add(2)
		go func() { defer wg.Done(); cp.Close() }()
		go func() {
			defer wg.Done()
			rc := b.ownCtx()
			defer rc.Close()
			b.sweepDeadTenantDomains(rc)
		}()
		wg.Wait()
	}
	if got := takeCensus(b); got != start {
		t.Fatalf("after racing closes: %+v, want %+v", got, start)
	}
}

// TestCloseKeepsInFlightCall: a process closed while one of its calls is
// in flight is forgotten at once, but that call runs to completion and
// reads active throughout, so no repair can break its locks; once it
// retires it reads defunct, and its thread's Close releases the session.
func TestCloseKeepsInFlightCall(t *testing.T) {
	b, err := CreateStore(Config{HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	start := takeCensus(b)
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	inCall, release := make(chan struct{}), make(chan struct{})
	defer faultpoint.DisarmAll()
	if err := faultpoint.Arm("ops.store.locked", func() { close(inCall); <-release }); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Set([]byte("k"), []byte("v"), 0, 0) }()
	<-inCall
	cp.Close()
	tok := s.Thread().LockOwner()
	if active, defunct := b.lib.TokenState(tok); !active || defunct {
		t.Fatalf("in-flight call of a closed process reads (active %v, defunct %v)", active, defunct)
	}
	if got := takeCensus(b); got.procs != start.procs || got.sessions != start.sessions+1 {
		t.Fatalf("while the call is in flight: %+v, want the process gone and its session kept", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("the in-flight call did not run to completion: %v", err)
	}
	if _, defunct := b.lib.TokenState(tok); !defunct {
		t.Fatal("a closed process's retired call reads alive")
	}
	s.Close()
	if got := takeCensus(b); got != start {
		t.Fatalf("after the thread closed its session: %+v, want %+v", got, start)
	}
}
