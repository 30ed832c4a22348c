package memcached

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"plibmc/internal/gatehard"
	"plibmc/internal/hodor"
	"plibmc/internal/mono"
	"plibmc/internal/proc"
)

func TestSessionPoolReuse(t *testing.T) {
	b := newTestStore(t)
	cp, _ := b.NewClientProcess(1000)
	p := cp.NewSessionPool(0)
	defer p.Close()

	s1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(s1)
	s2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("idle session not reused")
	}
	p.Put(s2)
	if total, idle := p.Stats(); total != 1 || idle != 1 {
		t.Fatalf("stats = %d/%d", total, idle)
	}
}

func TestSessionPoolMax(t *testing.T) {
	b := newTestStore(t)
	cp, _ := b.NewClientProcess(1000)
	p := cp.NewSessionPool(2)
	defer p.Close()
	a, _ := p.Get()
	c, _ := p.Get()
	if _, err := p.Get(); err == nil {
		t.Fatal("pool over max should fail")
	}
	p.Put(a)
	if _, err := p.Get(); err != nil {
		t.Fatalf("get after put: %v", err)
	}
	p.Put(c)
}

func TestSessionPoolWithConcurrent(t *testing.T) {
	b := newTestStore(t)
	cp, _ := b.NewClientProcess(1000)
	p := cp.NewSessionPool(0)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				err := p.With(func(s *Session) error {
					k := []byte(fmt.Sprintf("pool-%d-%d", g, i))
					if err := s.Set(k, []byte("v"), 0, 0); err != nil {
						return err
					}
					_, _, err := s.Get(k)
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total, idle := p.Stats()
	if total == 0 || idle != total {
		t.Fatalf("after quiesce: total=%d idle=%d", total, idle)
	}
	if st := b.Stats(); st.Sets != 8*200 {
		t.Fatalf("sets = %d", st.Sets)
	}
}

// TestSessionPoolDiscardsReapedSession reaps a borrowed session via the
// watchdog and verifies Put discards it instead of re-pooling it. Pre-fix,
// the dead session went back on the free list and the next Get handed it
// out, poisoning every borrower with ErrSessionReaped.
func TestSessionPoolDiscardsReapedSession(t *testing.T) {
	budget := 2 * time.Millisecond
	resume := mono.Still() // a budget of two ticks: step the clock instead
	defer resume()
	b, err := CreateStore(Config{HeapBytes: 32 << 20, HashPower: 8, NumItemLocks: 16,
		LiveCallBudget: budget, CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	p := cp.NewSessionPool(0)
	defer p.Close()

	s, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]byte("pk"), []byte("pv"), 0, 0); err != nil {
		t.Fatal(err)
	}

	// Reap the borrowed session: a hostile spin inside the gate, stamped t0,
	// then one step of the clock and one watchdog sweep 2.5 budgets past it.
	t0 := mono.Now()
	mono.Publish(t0)
	spinErr := make(chan error, 1)
	go func() {
		spinErr <- gatehard.HostileSpin(s.Hodor(), gatehard.SpinOpts{MaxSpin: 10 * time.Second})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !s.Hodor().InCall() {
		if time.Now().After(deadline) {
			t.Fatal("hostile call never admitted")
		}
		time.Sleep(50 * time.Microsecond)
	}
	step := t0 + int64(mono.Period)
	mono.Publish(step)
	b.Library().WatchdogSweep(mono.Time(step + int64(budget*5/2)))
	<-spinErr
	if !s.Hodor().Reaped() {
		t.Fatal("session not reaped")
	}
	if _, err := gatehard.WaitHealthy(b.Library(), 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	p.Put(s)
	if total, idle := p.Stats(); idle != 0 || total != 0 {
		t.Fatalf("dead session re-pooled: total=%d idle=%d, want 0/0", total, idle)
	}
	// The next borrower gets a fresh, working session.
	s2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v, _, err := s2.Get([]byte("pk")); err != nil || string(v) != "pv" {
		t.Fatalf("get on fresh session = %q, %v", v, err)
	}
	p.Put(s2)
	if total, idle := p.Stats(); total != 1 || idle != 1 {
		t.Fatalf("after recycle: total=%d idle=%d", total, idle)
	}
}

// TestSessionPoolWithDiscardsOnFatal: With must not re-pool a session whose
// callback failed with a session-fatal error (here, the process died
// mid-borrow).
func TestSessionPoolWithDiscardsOnFatal(t *testing.T) {
	b := newTestStore(t)
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	p := cp.NewSessionPool(0)
	werr := p.With(func(s *Session) error {
		cp.Kill()
		_, _, err := s.Get([]byte("k"))
		return err
	})
	if werr == nil {
		t.Fatal("call on killed process should fail")
	}
	if total, idle := p.Stats(); total != 0 || idle != 0 {
		t.Fatalf("fatal session kept: total=%d idle=%d, want 0/0", total, idle)
	}
	// Non-fatal per-key errors (a miss) must still re-pool.
	b2 := newTestStore(t)
	cp2, _ := b2.NewClientProcess(1001)
	p2 := cp2.NewSessionPool(0)
	defer p2.Close()
	if err := p2.With(func(s *Session) error {
		_, _, err := s.Get([]byte("absent"))
		return err
	}); err != ErrNotFound {
		t.Fatalf("miss = %v, want ErrNotFound", err)
	}
	if total, idle := p2.Stats(); total != 1 || idle != 1 {
		t.Fatalf("miss discarded the session: total=%d idle=%d", total, idle)
	}
}

func TestSessionPoolClose(t *testing.T) {
	b := newTestStore(t)
	cp, _ := b.NewClientProcess(1000)
	p := cp.NewSessionPool(0)
	s, _ := p.Get()
	p.Close()
	if _, err := p.Get(); err == nil {
		t.Fatal("get after close should fail")
	}
	p.Put(s) // returning after close releases the session
	if total, _ := p.Stats(); total != 0 {
		t.Fatalf("total after close = %d", total)
	}
}

// Recovery-class errors are retryable, not session-fatal: a breaker
// fast-fail wraps ErrPoisoned (its cause), but the borrower's session is
// attached to the caller's process, not the dying shard — discarding it
// would churn the pool exactly when the supervisor is riding out a
// failure. Before the carve-out, sessionFatal(shardDown(...)) was true
// via the wrapped poison cause.
func TestSessionFatalClassifiesRecoveryErrors(t *testing.T) {
	retryable := []error{
		shardDown(1, ShardRebuilding), // wraps ErrPoisoned — the regression lever
		shardDown(2, ShardRecovering), // wraps ErrRecoveryTimeout
		ErrShardDown,
		ErrRecovering,
		hodor.ErrRecoveryTimeout,
		hodor.ErrOverloaded,
		fmt.Errorf("memcached: shard 3 batch: %w", shardDown(3, ShardRebuilding)),
	}
	for _, err := range retryable {
		if sessionFatal(err) {
			t.Errorf("sessionFatal(%v) = true, want retryable", err)
		}
	}
	fatal := []error{hodor.ErrPoisoned, hodor.ErrSessionReaped, &proc.ErrKilled{PID: 1}}
	for _, err := range fatal {
		if !sessionFatal(err) {
			t.Errorf("sessionFatal(%v) = false, want fatal", err)
		}
	}
	if sessionFatal(nil) || sessionFatal(ErrNotFound) {
		t.Error("nil / per-key outcomes must not be fatal")
	}
}

// With re-pools a session whose callback failed with a breaker fast-fail.
func TestSessionPoolKeepsSessionOnShardDown(t *testing.T) {
	b := newTestStore(t)
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	p := cp.NewSessionPool(0)
	defer p.Close()
	werr := p.With(func(s *Session) error {
		return shardDown(0, ShardRebuilding)
	})
	if !errors.Is(werr, ErrShardDown) {
		t.Fatalf("With = %v", werr)
	}
	if total, idle := p.Stats(); total != 1 || idle != 1 {
		t.Fatalf("shard-down discarded the session: total=%d idle=%d, want 1/1", total, idle)
	}
	// The recycled session still works.
	if err := p.With(func(s *Session) error {
		return s.Set([]byte("k"), []byte("v"), 0, 0)
	}); err != nil {
		t.Fatal(err)
	}
}
