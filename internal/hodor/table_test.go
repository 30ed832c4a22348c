package hodor

import (
	"errors"
	"testing"
	"time"

	"plibmc/internal/mono"
	"plibmc/internal/proc"
)

// blockedCall starts a call on s that stays inside the library until the
// returned release is called, and waits until it is in flight.
func blockedCall(t *testing.T, s *Session) (release func()) {
	t.Helper()
	inCall := make(chan struct{})
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Call(s, func(*proc.Thread, struct{}) (struct{}, error) {
			close(inCall)
			<-block
			return struct{}{}, nil
		}, struct{}{})
	}()
	<-inCall
	return func() { close(block); <-done }
}

// backdate moves an in-flight call's admission stamp d into the past, so a
// sweep sees it that old without the test sleeping.
func backdate(s *Session, d time.Duration) { s.callStart.Store(mono.Now() - int64(d)) }

// TestWatchdogNeverEarlyOnCoarseStamps: a call admitted on the coarse
// clock began somewhere between its stamp and the next publication, so the
// watchdog measures it from the stamp plus the widest gap. Admitted just
// before a publication, a call is not reaped at twice its budget after its
// stamp, and is reaped one gap later.
func TestWatchdogNeverEarlyOnCoarseStamps(t *testing.T) {
	const budget, gap = 10 * time.Millisecond, 3 * time.Millisecond
	resume := mono.Still()
	defer resume()
	f := newFixture(t)
	f.lib.LiveCallBudget = budget
	s := f.session(t)
	t0 := mono.Now()
	mono.Publish(t0)
	release := blockedCall(t, s)
	defer release()
	if got := s.callStart.Load(); got != t0 {
		t.Fatalf("call stamped %d, want the published word %d", got, t0)
	}
	mono.Publish(t0 + int64(gap))
	at := func(d time.Duration) time.Time { return mono.Time(t0 + int64(d)) }
	if n := f.lib.WatchdogSweep(at(2*budget + gap)); n != 0 || s.Reaped() {
		t.Fatalf("reaped %d at twice the budget plus the gap after the stamp; the call may have begun a gap late", n)
	}
	if !s.AbortRequested() {
		t.Fatal("no abort request past 1.5 budgets of sure execution")
	}
	if n := f.lib.WatchdogSweep(at(2*budget + gap + time.Microsecond)); n != 1 || !s.Reaped() {
		t.Fatalf("reaped %d a gap past twice the budget, want 1", n)
	}
}

// TestAttachTwiceFails: the table is keyed by the thread's token, so a
// thread holds one session per library until it detaches.
func TestAttachTwiceFails(t *testing.T) {
	f := newFixture(t)
	th := f.p.NewThread()
	s, err := f.res.Attach(th, f.lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.res.Attach(th, f.lib); err == nil {
		t.Fatal("second Attach of an attached thread succeeded")
	}
	s.Detach()
	if _, err := f.res.Attach(th, f.lib); err != nil {
		t.Fatalf("Attach after Detach = %v", err)
	}
}

// TestDetachChurn: sessions that come and go leave the table as they found
// it, and the library still counts every call they made.
func TestDetachChurn(t *testing.T) {
	const cycles = 10000
	f := newFixture(t)
	noop := Wrap(f.lib, "noop", func(*proc.Thread, struct{}) (struct{}, error) { return struct{}{}, nil })
	start := len(f.lib.sessions)
	var last *Session
	for i := 0; i < cycles; i++ {
		last = f.session(t)
		if _, err := noop(last, struct{}{}); err != nil {
			t.Fatal(err)
		}
		last.Detach()
	}
	if n := len(f.lib.sessions); n != start {
		t.Fatalf("table holds %d sessions after %d attach/detach cycles, want %d", n, cycles, start)
	}
	if m := f.lib.Metrics(); m.Calls != cycles || m.Crossings != cycles {
		t.Fatalf("Calls = %d, Crossings = %d; want %d each", m.Calls, m.Crossings, cycles)
	}
	if _, err := noop(last, struct{}{}); !errors.Is(err, ErrNotLinked) {
		t.Fatalf("call on a detached session = %v, want ErrNotLinked", err)
	}
	if m := f.lib.Metrics(); m.Calls != cycles {
		t.Fatalf("a refused call was counted: Calls = %d", m.Calls)
	}
}

// TestDrainReapsOverdueCalls: the repair drain reaps a live call past twice
// its budget and a killed process's call past CallTimeout, and neither
// reap starts a second recovery cycle. A reaped call detached while still
// inside the library stays in the table, fenced.
func TestDrainReapsOverdueCalls(t *testing.T) {
	const budget = time.Hour
	f := newFixture(t)
	f.lib.LiveCallBudget = budget
	f.lib.CallTimeout = budget
	drained := make(chan bool, 1)
	f.lib.OnRecover(func(*CrashError) error {
		drained <- f.lib.DrainLiveCalls(2 * time.Second)
		return nil
	})
	p2, err := proc.NewProcess(1000, f.heap, 0x200000)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Loader{}.Load(p2, Binary{Name: "victim"}, f.lib)
	if err != nil {
		t.Fatal(err)
	}
	live := f.session(t)
	killed, err := res2.Attach(p2.NewThread(), f.lib)
	if err != nil {
		t.Fatal(err)
	}
	releaseLive := blockedCall(t, live)
	releaseKilled := blockedCall(t, killed)
	p2.Kill()
	backdate(live, 2*budget+time.Minute)
	backdate(killed, budget+time.Minute)

	boom := Wrap(f.lib, "boom", func(*proc.Thread, struct{}) (struct{}, error) { panic("die") })
	if _, err := boom(f.session(t), struct{}{}); err == nil {
		t.Fatal("crashing call returned nil error")
	}
	if !<-drained {
		t.Fatal("drain gave up on calls it should have reaped")
	}
	waitFor(t, 2*time.Second, "library healthy", func() bool { return !f.lib.Recovering() && !f.lib.Poisoned() })
	for _, s := range []*Session{live, killed} {
		if !s.Reaped() {
			t.Fatalf("session of process %d not reaped by the drain", s.Thread.Proc.ID)
		}
		if active, defunct := f.lib.TokenState(s.Thread.LockOwner()); active || !defunct {
			t.Fatalf("reaped token state = (%v, %v), want (false, true)", active, defunct)
		}
	}
	live.Detach()
	if f.lib.sessions[live.Thread.LockOwner()] != live {
		t.Fatal("a session detached inside a call left the table")
	}
	releaseLive()
	releaseKilled()
	m := f.lib.Metrics()
	if m.Recoveries != 1 || m.TenantCallsReaped != 1 {
		t.Fatalf("Recoveries = %d, TenantCallsReaped = %d; want 1 each", m.Recoveries, m.TenantCallsReaped)
	}
	if f.lib.Recovering() || f.lib.Poisoned() {
		t.Fatal("a reap during the drain started another cycle")
	}
	if _, err := Call(live, func(*proc.Thread, struct{}) (struct{}, error) { return struct{}{}, nil }, struct{}{}); !errors.Is(err, ErrNotLinked) {
		t.Fatalf("call on the detached zombie = %v, want ErrNotLinked", err)
	}
}

// TestDrainEscalates: the drain walks the sessions with the watchdog's
// sweep, so an over-budget live call met during a drain is warned, then
// asked to abort, before it would be reaped.
func TestDrainEscalates(t *testing.T) {
	const budget = time.Hour
	f := newFixture(t)
	f.lib.LiveCallBudget = budget
	s := f.session(t)
	release := blockedCall(t, s)
	defer release()

	backdate(s, budget+budget/4)
	if f.lib.DrainLiveCalls(0) {
		t.Fatal("drain reported no live calls with one in flight")
	}
	if m := f.lib.Metrics(); m.TenantWarns != 1 || m.TenantAborts != 0 || s.AbortRequested() {
		t.Fatalf("past the budget: warns %d, aborts %d, abort requested %v; want 1, 0, false", m.TenantWarns, m.TenantAborts, s.AbortRequested())
	}
	backdate(s, budget+3*budget/4)
	if f.lib.DrainLiveCalls(0) {
		t.Fatal("drain reported no live calls with one in flight")
	}
	m := f.lib.Metrics()
	if m.TenantWarns != 1 || m.TenantAborts != 1 || !s.AbortRequested() {
		t.Fatalf("past 1.5x the budget: warns %d, aborts %d, abort requested %v; want 1, 1, true", m.TenantWarns, m.TenantAborts, s.AbortRequested())
	}
	if s.Reaped() || m.TenantCallsReaped != 0 || m.Recoveries != 0 {
		t.Fatalf("escalation below 2x the budget reaped: %+v", m)
	}
}
