package hodor

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/mono"
	"plibmc/internal/proc"
)

// waitState polls until the library reaches the wanted predicate or the
// timeout expires.
func waitFor(t *testing.T, timeout time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRecoverLifecycle: with a repair routine registered, a crash inside
// the library quarantines it (Recovering), runs the routine, and resumes
// — never poisoning.
func TestRecoverLifecycle(t *testing.T) {
	f := newFixture(t)
	repaired := make(chan *CrashError, 1)
	f.lib.OnRecover(func(c *CrashError) error {
		repaired <- c
		return nil
	})
	s := f.session(t)

	boom := Wrap(f.lib, "boom", func(t *proc.Thread, _ struct{}) (struct{}, error) {
		panic("segfault in library")
	})
	var ce *CrashError
	if _, err := boom(s, struct{}{}); !errors.As(err, &ce) {
		t.Fatalf("crashing call returned %v, want *CrashError", err)
	}
	select {
	case c := <-repaired:
		if c.Lib != "libtest" {
			t.Fatalf("CrashError.Lib = %q", c.Lib)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("repair routine never ran")
	}
	waitFor(t, 2*time.Second, "library healthy", func() bool {
		return !f.lib.Recovering() && !f.lib.Poisoned()
	})
	if f.lib.Poisoned() {
		t.Fatal("library poisoned despite registered repair routine")
	}
	if m := f.lib.Metrics(); m.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", m.Recoveries)
	}

	ok := Wrap(f.lib, "ok", func(t *proc.Thread, x int) (int, error) { return x + 1, nil })
	if got, err := ok(s, 41); err != nil || got != 42 {
		t.Fatalf("post-recovery call = (%d, %v), want (42, nil)", got, err)
	}
}

// TestConcurrentCallersBlockDuringRecovery: calls that arrive while the
// library is Recovering park (bounded) and then succeed. None may ever
// see ErrPoisoned.
func TestConcurrentCallersBlockDuringRecovery(t *testing.T) {
	f := newFixture(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	f.lib.OnRecover(func(*CrashError) error {
		close(entered)
		<-release
		return nil
	})
	f.lib.RecoveryGrace = 10 * time.Second

	crasher := f.session(t)
	boom := Wrap(f.lib, "boom", func(t *proc.Thread, _ struct{}) (struct{}, error) {
		panic("die")
	})
	boom(crasher, struct{}{})
	<-entered // library is now Recovering, repair parked on release

	ok := Wrap(f.lib, "ok", func(t *proc.Thread, x int) (int, error) { return x * 2, nil })
	const n = 8
	var wg sync.WaitGroup
	var failures atomic.Int64
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := f.session(t)
			started <- struct{}{}
			got, err := ok(s, 21)
			if err != nil || got != 42 {
				t.Errorf("caller during recovery: (%d, %v)", got, err)
				failures.Add(1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// Give the callers time to park in admit, then finish the repair.
	time.Sleep(20 * time.Millisecond)
	if !f.lib.Recovering() {
		t.Fatal("library left Recovering while repair was parked")
	}
	close(release)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d callers failed during recovery", failures.Load())
	}
	if m := f.lib.Metrics(); m.Rejected != 0 {
		t.Fatalf("Rejected = %d, want 0 (no caller may see ErrPoisoned)", m.Rejected)
	}
}

// TestRecoveryTimeout: a caller that outwaits the grace period gets
// ErrRecoveryTimeout, which is distinct from ErrPoisoned.
func TestRecoveryTimeout(t *testing.T) {
	f := newFixture(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	f.lib.OnRecover(func(*CrashError) error {
		close(entered)
		<-release
		return nil
	})
	f.lib.RecoveryGrace = 30 * time.Millisecond

	boom := Wrap(f.lib, "boom", func(t *proc.Thread, _ struct{}) (struct{}, error) {
		panic("die")
	})
	boom(f.session(t), struct{}{})
	<-entered

	ok := Wrap(f.lib, "ok", func(t *proc.Thread, x int) (int, error) { return x, nil })
	_, err := ok(f.session(t), 1)
	if !errors.Is(err, ErrRecoveryTimeout) {
		t.Fatalf("err = %v, want ErrRecoveryTimeout", err)
	}
	if errors.Is(err, ErrPoisoned) {
		t.Fatal("timeout error must not be ErrPoisoned")
	}
	close(release)
	waitFor(t, 2*time.Second, "repair completion", func() bool { return !f.lib.Recovering() })
}

// TestFailedRepairPoisons: a repair routine returning an error falls back
// to the pre-recovery behaviour.
func TestFailedRepairPoisons(t *testing.T) {
	f := newFixture(t)
	f.lib.OnRecover(func(*CrashError) error {
		return errors.New("heap unrecoverable")
	})
	boom := Wrap(f.lib, "boom", func(t *proc.Thread, _ struct{}) (struct{}, error) {
		panic("die")
	})
	boom(f.session(t), struct{}{})
	waitFor(t, 2*time.Second, "poison after failed repair", f.lib.Poisoned)
	ok := Wrap(f.lib, "ok", func(t *proc.Thread, x int) (int, error) { return x, nil })
	if _, err := ok(f.session(t), 1); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("err = %v, want ErrPoisoned", err)
	}
	if m := f.lib.Metrics(); m.Recoveries != 0 {
		t.Fatalf("Recoveries = %d after failed repair, want 0", m.Recoveries)
	}
}

// TestPanickedRepairPoisons: a repair routine that itself panics must not
// take down the process — it poisons.
func TestPanickedRepairPoisons(t *testing.T) {
	f := newFixture(t)
	f.lib.OnRecover(func(*CrashError) error {
		panic("repair crashed too")
	})
	boom := Wrap(f.lib, "boom", func(t *proc.Thread, _ struct{}) (struct{}, error) {
		panic("die")
	})
	boom(f.session(t), struct{}{})
	waitFor(t, 2*time.Second, "poison after panicked repair", f.lib.Poisoned)
}

// TestWatchdogTriggersRecovery: the watchdog reaping an overdue call of a
// killed process starts a recovery cycle instead of poisoning when a
// repair routine is registered.
func TestWatchdogTriggersRecovery(t *testing.T) {
	f := newFixture(t)
	repaired := make(chan struct{})
	f.lib.OnRecover(func(*CrashError) error {
		close(repaired)
		return nil
	})
	f.lib.CallTimeout = 10 * time.Millisecond

	s := f.session(t)
	inCall := make(chan struct{})
	block := make(chan struct{})
	slow := Wrap(f.lib, "slow", func(t *proc.Thread, _ struct{}) (struct{}, error) {
		close(inCall)
		<-block
		return struct{}{}, nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		slow(s, struct{}{})
	}()
	<-inCall
	f.p.Kill()
	time.Sleep(20 * time.Millisecond)
	if n := f.lib.WatchdogSweep(time.Now()); n != 1 {
		t.Fatalf("WatchdogSweep = %d, want 1", n)
	}
	select {
	case <-repaired:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog reap did not trigger recovery")
	}
	waitFor(t, 2*time.Second, "healthy after watchdog recovery", func() bool {
		return !f.lib.Recovering() && !f.lib.Poisoned()
	})
	// The reaped token is defunct even though its goroutine is parked.
	active, defunct := f.lib.TokenState(s.Thread.LockOwner())
	if !defunct {
		t.Fatal("reaped session's token should be defunct")
	}
	if active {
		t.Fatal("reaped session's token should not be active")
	}
	close(block)
	<-done
}

// TestTokenActive: a live in-flight call — even of a killed process — is
// active, and never defunct.
func TestTokenActive(t *testing.T) {
	f := newFixture(t)
	s := f.session(t)
	tok := s.Thread.LockOwner()
	if active, _ := f.lib.TokenState(tok); active {
		t.Fatal("idle session reported active")
	}
	inCall := make(chan struct{})
	block := make(chan struct{})
	slow := Wrap(f.lib, "slow", func(t *proc.Thread, _ struct{}) (struct{}, error) {
		close(inCall)
		<-block
		return struct{}{}, nil
	})
	done := make(chan struct{})
	go func() { defer close(done); slow(s, struct{}{}) }()
	<-inCall
	if active, _ := f.lib.TokenState(tok); !active {
		t.Fatal("in-flight call not reported active")
	}
	f.p.Kill()
	if _, defunct := f.lib.TokenState(tok); defunct {
		t.Fatal("in-flight call of killed process reported defunct (run-to-completion)")
	}
	close(block)
	<-done
	if _, defunct := f.lib.TokenState(tok); !defunct {
		t.Fatal("killed process with no call in flight should be defunct")
	}
}

// TestCrashedCallDefunctBeforeRetire: the crash defer must record the
// token defunct *before* it retires the in-flight record. Any observer
// (the repair drain) that sees a crashed call retired must also see its
// token defunct — the reverse order leaves a window where the drain
// finishes, ForceReleaseDeadLocks skips the crasher's locks because the
// token still reads live, and nothing ever breaks them. The poller below
// watches one crashing call at a time and flags the bad interleaving.
func TestCrashedCallDefunctBeforeRetire(t *testing.T) {
	f := newFixture(t)
	f.lib.OnRecover(func(*CrashError) error { return nil })
	boom := Wrap(f.lib, "boom", func(*proc.Thread, struct{}) (struct{}, error) {
		panic("die mid-call")
	})
	for i := 0; i < 50; i++ {
		s := f.session(t)
		tok := s.Thread.LockOwner()
		stop := make(chan struct{})
		var bad atomic.Bool
		pollerDone := make(chan struct{})
		go func() {
			defer close(pollerDone)
			sawCall := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				in := s.InCall()
				if in && !sawCall {
					sawCall = true
				}
				if sawCall && !in {
					// The call retired. With the correct ordering the
					// token is already defunct at this instant.
					if _, defunct := f.lib.TokenState(tok); !defunct {
						bad.Store(true)
					}
					return
				}
			}
		}()
		if _, err := boom(s, struct{}{}); err == nil {
			t.Fatal("crashing call returned nil error")
		}
		close(stop)
		<-pollerDone
		if bad.Load() {
			t.Fatalf("iteration %d: call observed retired before its token went defunct", i)
		}
		waitFor(t, 2*time.Second, "library healthy", func() bool {
			return !f.lib.Recovering() && !f.lib.Poisoned()
		})
	}
}

// TestParkedCallStampedAtAdmission (ISSUE 26): a call that parked through a
// repair longer than twice the live-call budget is stamped when it is
// admitted, not when it arrived — the budget bounds execution, and a call
// that has executed for a millisecond must draw no warning and no reap
// (which would fence an innocent session and start another repair). The
// grace period is still measured from arrival.
func TestParkedCallStampedAtAdmission(t *testing.T) {
	const budget = 40 * time.Millisecond
	f := newFixture(t)
	f.lib.LiveCallBudget = budget
	f.lib.RecoveryGrace = 10 * time.Second
	entered := make(chan struct{})
	release := make(chan struct{})
	f.lib.OnRecover(func(*CrashError) error {
		close(entered)
		<-release
		return nil
	})
	boom := Wrap(f.lib, "boom", func(*proc.Thread, struct{}) (struct{}, error) { panic("die") })
	boom(f.session(t), struct{}{})
	<-entered

	s := f.session(t)
	inCall := make(chan int64)
	block := make(chan struct{})
	var began time.Time
	slow := Wrap(f.lib, "slow", func(*proc.Thread, struct{}) (struct{}, error) {
		began = time.Now()
		inCall <- s.callStart.Load()
		<-block
		return struct{}{}, nil
	})
	arrival := mono.Now()
	done := make(chan error, 1)
	go func() {
		_, err := slow(s, struct{}{})
		done <- err
	}()
	time.Sleep(5 * budget) // the caller parks while the repair is held
	select {
	case <-inCall:
		t.Fatal("call ran while the library was recovering")
	default:
	}
	close(release)
	stamp := <-inCall // admitted, now executing
	// Sweep as of a millisecond into the call's execution, however long this
	// goroutine took to get here.
	if n := f.lib.WatchdogSweep(began.Add(time.Millisecond)); n != 0 {
		t.Fatalf("WatchdogSweep reaped %d calls; the parked call has only just been admitted", n)
	}
	if m := f.lib.Metrics(); m.TenantCallsReaped != 0 || m.TenantWarns != 0 || m.TenantAborts != 0 || m.AttacksContained != 0 {
		t.Fatalf("watchdog escalated a just-admitted call: %+v", m)
	}
	if waited := time.Duration(stamp - arrival); waited < 5*budget {
		t.Fatalf("admission stamp is %v after arrival, want the %v the call parked", waited, 5*budget)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("parked call = %v", err)
	}
	if s.Reaped() {
		t.Fatal("parked session was reaped")
	}

	// The grace period runs from arrival: TestRecoveryTimeout still holds
	// with a budget set and the stamp re-read on every park.
	f2 := newFixture(t)
	f2.lib.LiveCallBudget = budget
	f2.lib.RecoveryGrace = 30 * time.Millisecond
	entered2 := make(chan struct{})
	release2 := make(chan struct{})
	f2.lib.OnRecover(func(*CrashError) error {
		close(entered2)
		<-release2
		return nil
	})
	boom2 := Wrap(f2.lib, "boom", func(*proc.Thread, struct{}) (struct{}, error) { panic("die") })
	boom2(f2.session(t), struct{}{})
	<-entered2
	ok := Wrap(f2.lib, "ok", func(_ *proc.Thread, x int) (int, error) { return x, nil })
	t0 := time.Now()
	if _, err := ok(f2.session(t), 1); !errors.Is(err, ErrRecoveryTimeout) {
		t.Fatalf("err = %v, want ErrRecoveryTimeout", err)
	}
	if waited := time.Since(t0); waited > time.Second {
		t.Fatalf("gave up after %v, want about the 30ms grace measured from arrival", waited)
	}
	close(release2)
	waitFor(t, 2*time.Second, "repair completion", func() bool { return !f2.lib.Recovering() })
}
