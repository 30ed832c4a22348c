package hodor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"plibmc/internal/mono"
	"plibmc/internal/pku"
	"plibmc/internal/proc"
)

// Library health states. A crash inside library code moves the library
// from Healthy to either Poisoned (no repair routine registered — the
// paper's "a crash that occurs inside library code is considered
// unrecoverable") or Recovering (a repair routine is registered; new
// calls park with a bounded wait while the routine quarantines and
// repairs the shared state, then the library resumes serving).
const (
	stateHealthy int32 = iota
	stateRecovering
	statePoisoned
)

// Library is a protected library: a protection domain, a set of entry
// points reachable only through trampolines, an initialization routine run
// by the loader, and the owner whose credentials gate access to the
// library's backing file.
type Library struct {
	Name     string
	OwnerUID int
	Domain   *Domain

	// CopyArgs enables the optional trampoline behaviour of copying
	// arguments into the library on the way in (paper §2). The paper's
	// memcached leaves this off and copies only security-sensitive
	// arguments manually; our benchmarks match, and an ablation bench
	// turns it on.
	CopyArgs bool

	// CallTimeout is the "generous timeout" after which the OS stops
	// honouring the run-to-completion guarantee for calls of a killed
	// process. Zero means the default of one second.
	CallTimeout time.Duration

	// RecoveryGrace bounds how long a call parks while the library is
	// Recovering before giving up with ErrRecoveryTimeout, and how long
	// the repair coordinator may wait for live calls to drain. Zero means
	// the default of five seconds.
	RecoveryGrace time.Duration

	// LiveCallBudget is the per-call execution budget for *live* sessions
	// (gate hardening): a call still in flight after the budget draws a
	// warning, after 1.5x the budget an abort request (cooperative library
	// code — the batch dispatcher — polls Session.AbortRequested and bails
	// out), and after 2x the budget the watchdog reaps the call exactly as
	// it reaps overdue calls of killed processes: the session is fenced,
	// its locks are broken, and the store repairs online. Zero disables
	// live-deadline enforcement (the pre-hardening behaviour, where a
	// tenant spinning inside the gate wedges everyone forever).
	LiveCallBudget time.Duration

	// MaxInFlight caps concurrently admitted calls across all sessions;
	// excess admissions fail fast with ErrOverloaded. Zero means unlimited.
	MaxInFlight int

	// TenantQuota caps concurrently admitted calls per tenant (per client
	// process); excess admissions fail with ErrTenantQuota so one noisy
	// tenant cannot starve its siblings of gate slots. Zero means unlimited.
	TenantQuota int

	initFn    func(*proc.Process) error
	entries   map[string]bool
	state     atomic.Int32
	recoverFn func(*CrashError) error

	crashes    atomic.Uint64
	rejected   atomic.Uint64
	recoveries atomic.Uint64
	// Gate-hardening counters (the containment metrics plane).
	attacksContained atomic.Uint64 // attacks provably denied (fence/pku/forged-register/zombie re-entry)
	tenantReaps      atomic.Uint64 // live calls reaped for exceeding their execution budget
	tenantWarns      atomic.Uint64 // live calls that drew a budget warning
	tenantAborts     atomic.Uint64 // live calls asked to abort cooperatively
	gateRejections   atomic.Uint64 // admissions refused for overload/quota/pin exhaustion
	inflight         atomic.Int64  // currently admitted calls (MaxInFlight accounting)

	mu sync.Mutex
	// sessions holds the attached sessions by their thread's lock-owner
	// token. Detach removes one and folds its call counters into calls and
	// crossings, so the sums stay the library's.
	sessions         map[uint64]*Session
	calls, crossings uint64
	// procs is the process registry, by pid, from Register until Forget.
	procs map[int]*member
}

// member is one registered process: the admission counter its sessions
// bind at attach (TenantQuota), and the tokens of its threads that died
// mid-call, whose locks the repair coordinator may break.
type member struct {
	p       *proc.Process
	quota   atomic.Int64
	defunct map[uint64]struct{}
}

// Metrics is a snapshot of a library's call accounting.
type Metrics struct {
	Calls      uint64 // completed trampolined calls (including failed ones)
	Crashes    uint64 // panics inside library code
	Rejected   uint64 // calls refused (poisoned library, killed process, …)
	Recoveries uint64 // completed quarantine→repair→resume cycles
	// Crossings counts completed round-trip gate crossings: one per call
	// that retired without crashing. Each round trip comprises two PKRU
	// transitions (amplify on entry, restore on exit). Rejected calls
	// never cross; crashed calls never complete theirs. Crossings/ops is
	// the figure of merit batching drives down (< 0.1 on the batched 95/5
	// mix).
	Crossings uint64
	// AttacksContained counts provably denied hostile actions: protection
	// faults and lock-fence denials unwinding a call, forged registers
	// scrubbed at the gate, zombie re-entry refusals, and live-budget
	// reaps. Each is an attack the hardening layer contained rather than
	// a fault it merely survived.
	AttacksContained uint64
	// TenantCallsReaped counts live calls terminated for exceeding their
	// LiveCallBudget; TenantWarns and TenantAborts count the escalation
	// steps (warn, cooperative abort request) that preceded reaps.
	TenantCallsReaped uint64
	TenantWarns       uint64
	TenantAborts      uint64
	// GateRejections counts admissions refused as backpressure: gate
	// saturation (MaxInFlight), per-tenant quota, or hardware-key pin
	// exhaustion. All are retryable, none poison anything.
	GateRejections uint64
}

// Metrics returns the library's call counters. Calls and crossings are
// counted per session, by the session's own thread, and summed here — the
// scattered statistics array one layer up: a counter every thread adds to
// is a cache line every thread fights over.
func (l *Library) Metrics() Metrics {
	l.mu.Lock()
	calls, crossings := l.calls, l.crossings
	for _, s := range l.sessions {
		calls += s.calls.Load()
		crossings += s.crossings.Load()
	}
	l.mu.Unlock()
	return Metrics{
		Calls:             calls,
		Crashes:           l.crashes.Load(),
		Rejected:          l.rejected.Load(),
		Recoveries:        l.recoveries.Load(),
		Crossings:         crossings,
		AttacksContained:  l.attacksContained.Load(),
		TenantCallsReaped: l.tenantReaps.Load(),
		TenantWarns:       l.tenantWarns.Load(),
		TenantAborts:      l.tenantAborts.Load(),
		GateRejections:    l.gateRejections.Load(),
	}
}

// NewLibrary creates a library in the given domain.
func NewLibrary(name string, ownerUID int, d *Domain) *Library {
	return &Library{
		Name:     name,
		OwnerUID: ownerUID,
		Domain:   d,
		entries:  make(map[string]bool),
		sessions: make(map[uint64]*Session),
		procs:    make(map[int]*member),
	}
}

// Register admits p to the process registry: the loader calls it for each
// process it links, the library's owner for its own. Only a registered
// process's threads attach, and only its tokens can read alive.
func (l *Library) Register(p *proc.Process) {
	l.mu.Lock()
	if l.procs[p.ID] == nil {
		l.procs[p.ID] = &member{p: p, defunct: make(map[uint64]struct{})}
	}
	l.mu.Unlock()
}

// Forget drops p from the registry, defunct tokens included: p attaches no
// more threads, and its tokens read defunct but for a call in flight. Call
// it once p can start no call.
func (l *Library) Forget(p *proc.Process) {
	l.mu.Lock()
	delete(l.procs, p.ID)
	l.mu.Unlock()
}

// Census returns how many processes are registered and how many sessions
// are attached.
func (l *Library) Census() (procs, sessions int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.procs), len(l.sessions)
}

// OnInit registers the library's initialization routine. The loader runs it
// once per process, under the library owner's effective UID.
func (l *Library) OnInit(fn func(*proc.Process) error) { l.initFn = fn }

// OnRecover registers the repair routine that turns a crash inside library
// code from a terminal event into a quarantine→repair→resume cycle. The
// routine runs on its own goroutine while new calls park; if it returns an
// error (or panics) the library is poisoned as before. With no routine
// registered, any crash permanently poisons the library.
//
// Register before the library serves calls; the field is read without
// synchronization on the crash path.
func (l *Library) OnRecover(fn func(*CrashError) error) { l.recoverFn = fn }

// Entries returns the names of the registered entry points, the analog of
// the HODOR_FUNC_EXPORT table.
func (l *Library) Entries() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.entries))
	for n := range l.entries {
		names = append(names, n)
	}
	return names
}

// Poisoned reports whether a crash inside library code has made the library
// unrecoverable.
func (l *Library) Poisoned() bool { return l.state.Load() == statePoisoned }

// Recovering reports whether a repair cycle is in progress; calls made now
// park until it completes (bounded by RecoveryGrace).
func (l *Library) Recovering() bool { return l.state.Load() == stateRecovering }

// ErrPoisoned is returned for calls into a library that has crashed.
var ErrPoisoned = errors.New("hodor: library poisoned by a crash inside library code")

// ErrRecoveryTimeout is returned when a call waited longer than
// RecoveryGrace for an in-progress repair to finish. The library is not
// poisoned; retrying is reasonable.
var ErrRecoveryTimeout = errors.New("hodor: library still recovering after grace period")

// ErrNotLinked is returned when a thread calls into a library that its
// process never loaded.
var ErrNotLinked = errors.New("hodor: library not linked into this process")

// ErrOverloaded is typed backpressure: the gate refused to admit the call
// because in-flight calls saturate a configured limit (MaxInFlight), the
// tenant exceeded its quota (ErrTenantQuota wraps this), or every hardware
// protection key is pinned (pku.ErrAllKeysPinned, reachable through
// errors.Is on the returned error). The store is healthy; retrying after a
// short backoff is the expected response.
var ErrOverloaded = errors.New("hodor: gate overloaded")

// ErrTenantQuota is the per-tenant flavour of ErrOverloaded: this tenant
// already has TenantQuota calls in flight. errors.Is(err, ErrOverloaded)
// matches it.
var ErrTenantQuota = fmt.Errorf("%w: per-tenant admission quota exhausted", ErrOverloaded)

// ErrSessionReaped is returned for any call on a session whose earlier call
// was reaped by the watchdog. The reaped thread is considered terminated;
// letting the same session re-enter the gate would be Garmr's zombie
// re-entry attack, so the refusal is counted as a contained attack.
var ErrSessionReaped = errors.New("hodor: session was reaped by the watchdog; re-attach to continue")

// Retryable reports whether an admission error is transient: the gate
// refused or timed out, but the library itself is expected to come back
// (repair in flight, backpressure) so the caller should retry rather
// than discard its session. Poison, reaped sessions, and killed
// processes are not retryable — those sessions are dead.
func Retryable(err error) bool {
	return errors.Is(err, ErrRecoveryTimeout) || errors.Is(err, ErrOverloaded)
}

// overloadedError wraps a transient resource-exhaustion cause (hardware-key
// pin exhaustion) so callers can match both the backpressure class
// (ErrOverloaded) and the specific cause (pku.ErrAllKeysPinned).
type overloadedError struct{ cause error }

func (e *overloadedError) Error() string        { return "hodor: gate overloaded: " + e.cause.Error() }
func (e *overloadedError) Unwrap() error        { return e.cause }
func (e *overloadedError) Is(target error) bool { return target == ErrOverloaded }

// Session binds one client thread to one library: the per-thread state a
// trampoline needs (saved register, the library-side stack, and the
// in-flight call record the watchdog inspects). Every call writes it, so
// 64 bytes of padding at each end keep those words off the lines of
// whatever the allocator puts beside it.
type Session struct {
	_      [64]byte
	Lib    *Library
	Thread *proc.Thread

	// Tenant is this session's own protection domain (gate hardening):
	// when set, each call binds the tenant's virtual key alongside the
	// library's, so the amplified register grants exactly this tenant's
	// pages — a sibling tenant's buffers stay fenced even from inside the
	// gate. Set it before the session serves calls.
	Tenant *Domain

	linked bool
	// callStart is the in-flight call's admission stamp (mono.Coarse, or
	// mono.Now after a park; never 0), or 0 when the thread is in
	// application code.
	callStart atomic.Int64
	// stackDepth models the trampoline's switch to the library-side stack.
	stackDepth int
	// savedPKRU is the register value the exit crossing restores.
	savedPKRU pku.PKRU
	// reaped marks a session whose in-flight call outlived the watchdog
	// timeout: either its process was killed (the OS has terminated the
	// thread), or — with LiveCallBudget set — a live call overran its
	// execution budget and was forcibly terminated. Either way the call
	// will never retire, recovery must not wait for it, and the session
	// must never be admitted again (ErrSessionReaped).
	reaped atomic.Bool
	// esc is the live-deadline escalation state of the in-flight call
	// (escNone → escWarned → escAbort → escReaped); admit resets it.
	esc atomic.Int32
	// quota is its process's admission counter (TenantQuota).
	quota *atomic.Int64
	// slotHeld records that admit charged this call against the admission
	// limits, so the retire path knows to release them.
	slotHeld bool
	// calls and crossings are this session's shares of Metrics' counters.
	calls, crossings atomic.Uint64
	_                [64]byte
}

// Live-deadline escalation states (Session.esc).
const (
	escNone int32 = iota
	escWarned
	escAbort
	escReaped
)

// InCall reports whether the session's thread is inside a library call.
func (s *Session) InCall() bool { return s.callStart.Load() != 0 }

// StackDepth returns the current library-stack depth (0 in application code).
func (s *Session) StackDepth() int { return s.stackDepth }

// Reaped reports whether the watchdog reaped one of this session's calls;
// a reaped session is permanently fenced out of the gate.
func (s *Session) Reaped() bool { return s.reaped.Load() }

// AbortRequested reports whether the watchdog has asked the in-flight call
// to abort (the cooperative stage of live-deadline escalation, between the
// warning and the reap). Long-running library code — the batch dispatcher —
// polls this between operations and returns early when set.
func (s *Session) AbortRequested() bool { return s.esc.Load() >= escAbort }

// attach registers a session for a thread of a registered process. A
// thread holds at most one session on a library: its token is the key.
func (l *Library) attach(t *proc.Thread) (*Session, error) {
	tok := t.LockOwner()
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.procs[t.Proc.ID]
	if m == nil {
		return nil, ErrNotLinked
	}
	if l.sessions[tok] != nil {
		return nil, fmt.Errorf("hodor: thread %d of process %d is already attached to %q", t.TID, t.Proc.ID, l.Name)
	}
	s := &Session{Lib: l, Thread: t, linked: true, quota: &m.quota}
	l.sessions[tok] = s
	return s, nil
}

// Detach ends the session, on its own thread: later calls fail with
// ErrNotLinked, and it leaves the table, its counters folded into the
// library's — unless a (reaped zombie's) call is still in flight on it.
func (s *Session) Detach() {
	l := s.Lib
	s.linked = false
	l.mu.Lock()
	defer l.mu.Unlock()
	tok := s.Thread.LockOwner()
	if l.sessions[tok] != s || s.callStart.Load() != 0 {
		return
	}
	delete(l.sessions, tok)
	l.calls += s.calls.Load()
	l.crossings += s.crossings.Load()
}

// A CrashError wraps a panic that escaped library code: a segfault inside a
// protected-library call.
type CrashError struct {
	Lib   string
	Cause any
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("hodor: crash inside library %q: %v", e.Lib, e.Cause)
}

// Copier is implemented by argument types that know how to copy themselves
// into the library domain, used when Library.CopyArgs is enabled.
type Copier interface{ LibCopy() any }

// Grace is RecoveryGrace, or its default of five seconds.
func (l *Library) Grace() time.Duration {
	if l.RecoveryGrace > 0 {
		return l.RecoveryGrace
	}
	return 5 * time.Second
}

func (l *Library) callTimeout() time.Duration {
	if l.CallTimeout > 0 {
		return l.CallTimeout
	}
	return time.Second
}

// admit gates a call on library health and load. It publishes the session's
// in-flight record *before* loading the state word so that the repair
// drain (which reads states in the opposite order) can never miss a call
// that slipped past a Healthy check: either admit sees the Recovering
// state, or the drain sees the published callStart. That stamp is re-read
// after every park: the watchdog's budget bounds execution, not the wait
// for a repair; only the grace period runs from arrival.
func (l *Library) admit(s *Session, arrival int64) error {
	if s.reaped.Load() {
		// Zombie re-entry (Garmr): the watchdog terminated this session's
		// thread; the session object resurfacing at the gate is an attack
		// (or a badly confused client) and the refusal is containment.
		l.attacksContained.Add(1)
		return ErrSessionReaped
	}
	if s.esc.Load() != escNone {
		s.esc.Store(escNone)
	}
	start := arrival
	for {
		s.callStart.Store(start)
		switch l.state.Load() {
		case stateHealthy:
			if sErr := l.acquireSlot(s); sErr != nil {
				s.callStart.Store(0)
				return sErr
			}
			return nil
		case statePoisoned:
			s.callStart.Store(0)
			return ErrPoisoned
		}
		// Recovering: withdraw the in-flight record before parking so the
		// drain does not count waiters as live calls, then wait bounded.
		s.callStart.Store(0)
		if s.Thread.Proc.Killed() {
			return &proc.ErrKilled{PID: s.Thread.Proc.ID}
		}
		if mono.Now() > arrival+int64(l.Grace()) {
			return ErrRecoveryTimeout
		}
		time.Sleep(100 * time.Microsecond)
		start = mono.Now()
	}
}

// acquireSlot charges an admitted call against the configured admission
// limits, failing fast with typed backpressure when a limit is saturated.
// Admission control is the first hardening line: a hostile tenant pumping
// calls hits its quota and fails cheaply in its own process, instead of
// queueing work that starves well-behaved tenants of gate slots or
// hardware-key pins.
func (l *Library) acquireSlot(s *Session) error {
	if l.MaxInFlight <= 0 && l.TenantQuota <= 0 {
		return nil
	}
	if l.MaxInFlight > 0 {
		if n := l.inflight.Add(1); n > int64(l.MaxInFlight) {
			l.inflight.Add(-1)
			l.gateRejections.Add(1)
			return ErrOverloaded
		}
	}
	if l.TenantQuota > 0 {
		if n := s.quota.Add(1); n > int64(l.TenantQuota) {
			s.quota.Add(-1)
			if l.MaxInFlight > 0 {
				l.inflight.Add(-1)
			}
			l.gateRejections.Add(1)
			return ErrTenantQuota
		}
	}
	s.slotHeld = true
	return nil
}

// releaseSlot returns the admission charges taken by acquireSlot.
func (l *Library) releaseSlot(s *Session) {
	if !s.slotHeld {
		return
	}
	s.slotHeld = false
	if l.MaxInFlight > 0 {
		l.inflight.Add(-1)
	}
	if l.TenantQuota > 0 {
		s.quota.Add(-1)
	}
}

// Call runs fn as a protected-library call on session s, performing the full
// trampoline sequence:
//
//  1. verify the library is linked, healthy, and the process alive;
//  2. switch to the library-side stack;
//  3. wrpkru: amplify rights to the library's domain;
//  4. optionally copy arguments into the library (CopyArgs);
//  5. run the entry point;
//  6. wrpkru: restore the saved register, switch stacks back.
//
// If the process is killed while the call is in flight, the call completes
// and its result is returned; the thread is only then subject to the kill
// (the caller observes it at its next CheckAlive). If fn panics, the panic
// is converted into a CrashError; the library is poisoned, or — when a
// repair routine is registered via OnRecover — enters Recovering and
// subsequent calls park until repair completes.
func Call[A, R any](s *Session, fn func(*proc.Thread, A) (R, error), arg A) (res R, err error) {
	if err = s.enter(); err != nil {
		return res, err
	}
	defer s.leave(&err)
	if s.Lib.CopyArgs {
		if c, ok := any(arg).(Copier); ok {
			arg = c.LibCopy().(A)
		}
	}
	return fn(s.Thread, arg)
}

// tenantTable returns the vtable of the session's own protection domain,
// or nil when it has none.
func (s *Session) tenantTable() *pku.VTable {
	if td := s.Tenant; td != nil {
		return td.VT
	}
	return nil
}

// enter is the entry half of the trampoline: every admission check, the
// key pins, and the rights amplification. A nil return means the thread is
// inside the library and must leave through leave.
func (s *Session) enter() error {
	if !s.linked {
		return ErrNotLinked
	}
	l := s.Lib
	t := s.Thread
	if eErr := t.EnterLibrary(); eErr != nil {
		l.rejected.Add(1)
		return eErr
	}
	if aErr := l.admit(s, mono.Coarse()); aErr != nil {
		l.rejected.Add(1)
		t.ExitLibrary()
		return aErr
	}
	// Resolve the domain's hardware key. Virtual domains bind their key
	// through the vtable for the duration of the call (the pin keeps the
	// mapping from being recycled out from under the amplified thread);
	// a bind failure — every hardware key pinned — rejects the call as
	// retryable backpressure (every pin is an in-flight call about to
	// release it), not as a fault.
	hw := l.Domain.Key
	vt := l.Domain.VT
	if vt != nil {
		k, bErr := vt.Bind(l.Domain.VKey)
		if bErr != nil {
			return l.reject(s, bErr)
		}
		hw = k
	}
	// Per-tenant protection domain (gate hardening): bind the session's own
	// virtual key too, so the amplified register grants the library's pages
	// plus exactly this tenant's — a sibling tenant's buffers stay fenced
	// even from code running inside the gate.
	tvt := s.tenantTable()
	var thw pku.Key
	if tvt != nil {
		k, bErr := tvt.Bind(s.Tenant.VKey)
		if bErr != nil {
			if vt != nil {
				vt.Unbind(l.Domain.VKey)
			}
			return l.reject(s, bErr)
		}
		thw = k
	}
	s.calls.Add(1)
	// Entry crossing: stack switch plus rights amplification.
	s.stackDepth++ // switch to the library-side stack
	saved := t.PKRU()
	// Lazy PKRU synchronization (libmpk): a remap since this thread last
	// synced means its register may grant hardware keys whose meaning
	// changed. Scrub to the all-restricted baseline once, instead of
	// rewriting every thread's register at remap time. The tenant table is
	// the one that remaps in steady state, so it drives the generation when
	// both a virtual library domain and a tenant domain are in play.
	syncVT := tvt
	if syncVT == nil {
		syncVT = vt
	}
	if syncVT != nil {
		if g := syncVT.Gen(); t.VTGen() != g {
			saved = pku.AllRestricted()
			proc.WRPKRU(t, saved)
			syncVT.NoteSync()
			t.SetVTGen(g)
		}
	}
	// Trampoline register sanitization (gate hardening, Garmr's stray-
	// wrpkru class): the saved register is about to be restored verbatim on
	// exit, so a forged value — one granting keys only trampolines may
	// grant — would hand the forger standing access to protected pages.
	// Application registers are AllRestricted outside the gate; anything
	// that grants a library- or vtable-owned key is forged and is scrubbed
	// to the baseline instead of trusted.
	if base := pku.AllRestricted(); saved != base {
		forged := vt == nil && hw != pku.KeyDefault && saved.CanRead(hw) ||
			vt != nil && vt.GrantsOwnedKey(saved) ||
			tvt != nil && tvt.GrantsOwnedKey(saved)
		if forged {
			saved = base
			proc.WRPKRU(t, saved)
			l.attacksContained.Add(1)
		}
	}
	s.savedPKRU = saved
	amp := saved.WithAccess(hw)
	if tvt != nil {
		amp = amp.WithAccess(thw)
	}
	proc.WRPKRU(t, amp)
	return nil
}

// reject refuses a call that admit had already let in (a key bind failed):
// it returns the admission charges and retires the in-flight record.
func (l *Library) reject(s *Session, bErr error) error {
	if errors.Is(bErr, pku.ErrAllKeysPinned) {
		l.gateRejections.Add(1)
		bErr = &overloadedError{cause: bErr}
	}
	l.rejected.Add(1)
	l.releaseSlot(s)
	s.callStart.Store(0)
	s.Thread.ExitLibrary()
	return bErr
}

// leave is the exit half of the trampoline, deferred by Call: it restores
// the register, drops the pins and retires the in-flight record, and turns
// a panic out of library code into a CrashError and a recovery cycle.
func (s *Session) leave(err *error) {
	crashed := recover()
	l := s.Lib
	t := s.Thread
	contained := false
	if crashed != nil {
		contained = l.crashedCall(s, crashed, err)
	}
	proc.WRPKRU(t, s.savedPKRU)
	if tvt := s.tenantTable(); tvt != nil {
		tvt.Unbind(s.Tenant.VKey)
	}
	if vt := l.Domain.VT; vt != nil {
		vt.Unbind(l.Domain.VKey)
	}
	s.stackDepth--
	s.callStart.Store(0)
	l.releaseSlot(s)
	t.ExitLibrary()
	switch {
	case crashed == nil:
		s.crossings.Add(1)
	case contained && s.reaped.Load():
		// A fence denial unwinding an already-reaped zombie: the repair cycle
		// for its reaping already ran (or is running), and the denial proves
		// this unwind touched nothing since. Starting another quarantine→repair
		// cycle would let a hostile tenant trigger repairs just by re-entering.
	default:
		// After the in-flight record is retired: the repair drain must not
		// wait for this call before repairing.
		l.beginRecovery(crashed)
	}
}

// crashedCall accounts for a panic out of library code while the call's
// in-flight record is still published, and reports whether the panic was a
// contained attack.
func (l *Library) crashedCall(s *Session, crashed any, err *error) (contained bool) {
	l.crashes.Add(1)
	// A panic value carrying the ContainedAttack marker (a pku protection
	// fault, a core lock-fence denial) is a hostile or zombie access the
	// protection layers *denied*: the denial proves no protected state moved.
	if _, ok := crashed.(interface{ ContainedAttack() }); ok {
		contained = true
		l.attacksContained.Add(1)
	}
	*err = &CrashError{Lib: l.Name, Cause: crashed}
	// Record the token defunct while the in-flight record is still published:
	// a repair drain that observes this call retired must also observe the
	// token defunct, or the crasher's held locks would survive the drain's
	// final ForceReleaseDeadLocks with nothing left to retrigger recovery.
	// (TokenState still reports the token alive until callStart clears, so
	// the locks are not broken under this unwinding call.)
	l.markDefunct(s.Thread.LockOwner())
	return contained
}

// markDefunct records a lock-owner token whose execution context died
// mid-call, before its in-flight record retires (see crashedCall). An
// unregistered process's tokens read defunct anyway.
func (l *Library) markDefunct(token uint64) {
	l.mu.Lock()
	if m := l.procs[proc.TokenPID(token)]; m != nil {
		m.defunct[token] = struct{}{}
	}
	l.mu.Unlock()
}

// beginRecovery transitions the library after a crash: to Poisoned when no
// repair routine is registered, otherwise to Recovering (if not already
// there) with the repair running on its own goroutine.
func (l *Library) beginRecovery(cause any) {
	l.mu.Lock()
	fn := l.recoverFn
	l.mu.Unlock()
	if fn == nil {
		l.state.Store(statePoisoned)
		return
	}
	if l.state.CompareAndSwap(stateHealthy, stateRecovering) {
		go l.runRepair(&CrashError{Lib: l.Name, Cause: cause})
	}
}

// noteCrash records a defunct token and transitions the library — the
// combined form used where no in-flight record ordering is at stake.
func (l *Library) noteCrash(token uint64, cause any) {
	l.markDefunct(token)
	l.beginRecovery(cause)
}

// runRepair drives one quarantine→repair→resume cycle. A repair that
// fails or panics poisons the library — the pre-recovery behaviour.
func (l *Library) runRepair(cause *CrashError) {
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hodor: repair routine panicked: %v", r)
		}
		if err != nil {
			l.state.Store(statePoisoned)
			return
		}
		l.recoveries.Add(1)
		l.state.Store(stateHealthy)
	}()
	err = l.recoverFn(cause)
}

// TriggerRecovery marks token defunct and starts a recovery cycle (or
// poisons the library when no repair routine is registered). It is for
// crashes observed outside a trampolined call — e.g. the store owner's
// maintenance thread faulting — where no Call defer sees the panic.
func (l *Library) TriggerRecovery(token uint64, cause any) {
	l.crashes.Add(1)
	l.noteCrash(token, cause)
}

// TokenState is the liveness oracle: whether a lock-owner token has a call
// in flight (active), or can never again run library code (defunct): its
// call crashed or was reaped, or its process was killed or is not
// registered. An in-flight call — even a killed process's, which runs to
// completion — is never defunct, so breaking defunct tokens' locks cannot
// race with their owners.
func (l *Library) TokenState(token uint64) (active, defunct bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.sessions[token]; s != nil {
		switch {
		case s.reaped.Load():
			return false, true
		case s.callStart.Load() != 0:
			return true, false // running; run-to-completion protects it
		}
	}
	m := l.procs[proc.TokenPID(token)]
	if m == nil {
		return false, true
	}
	_, dead := m.defunct[token]
	return false, dead || m.p.Killed()
}

// DrainLiveCalls waits for every live in-flight call to retire, so that a
// repair pass can assume exclusive access to the shared state. It sweeps
// as the watchdog does, so overdue calls are reaped, not waited for: a
// tenant spinning inside the gate cannot stall the drain into poison.
// Returns false if live calls remain when the timeout expires.
func (l *Library) DrainLiveCalls(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if _, live := l.sweep(time.Now()); !live {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// RegisterEntry records an entry point name in the library's export table
// (the HODOR_FUNC_EXPORT analog). Wrap calls it automatically.
func (l *Library) RegisterEntry(name string) {
	l.mu.Lock()
	l.entries[name] = true
	l.mu.Unlock()
}

// Wrap builds a trampolined version of an entry point and records it in the
// library's export table. The returned function is what the application
// links against.
func Wrap[A, R any](l *Library, name string, fn func(*proc.Thread, A) (R, error)) func(*Session, A) (R, error) {
	l.RegisterEntry(name)
	return func(s *Session, arg A) (R, error) {
		return Call(s, fn, arg)
	}
}

// WatchdogSweep enforces the execution-time limits on gate calls. For
// killed processes it is the run-to-completion bound: a thread of a killed
// process inside a call longer than CallTimeout is terminated by the OS.
// For *live* sessions (gate hardening) it enforces LiveCallBudget with an
// escalation ladder: past the budget the call draws a warning; past 1.5x
// an abort request that cooperative library code (the batch dispatcher)
// honours between operations; past 2x the call is reaped exactly like an
// overdue call of a killed process — fenced, its locks broken, the store
// repaired online while sibling tenants keep serving. Since a reaped
// thread may hold locks, reaping triggers a recovery cycle (or poisons a
// library with no repair routine). now is injected for testability. A
// call is judged by the time it has surely run (mono.Elapsed): a coarse
// stamp can only make a reap later. It returns the number of calls reaped.
func (l *Library) WatchdogSweep(now time.Time) int {
	reaped, _ := l.sweep(now)
	return reaped
}

// sweep is WatchdogSweep's walk, shared with DrainLiveCalls; it also
// reports whether an unreaped call is still in flight. A reap during a
// drain starts no second repair: the library is already Recovering.
func (l *Library) sweep(now time.Time) (reaped int, live bool) {
	timeout := l.callTimeout()
	budget := l.LiveCallBudget
	nowNS := mono.At(now)
	var inCall []*Session
	l.mu.Lock()
	for _, s := range l.sessions {
		if s.callStart.Load() != 0 && !s.reaped.Load() {
			inCall = append(inCall, s)
		}
	}
	l.mu.Unlock()
	for _, s := range inCall {
		start := s.callStart.Load()
		if start == 0 {
			continue
		}
		elapsed := time.Duration(mono.Elapsed(start, nowNS))
		killed := s.Thread.Proc.Killed()
		switch {
		case killed && elapsed > timeout:
			if s.reaped.CompareAndSwap(false, true) {
				reaped++
				l.noteCrash(s.Thread.LockOwner(), "watchdog: overdue call of killed process")
			}
			continue
		case killed || budget <= 0 || elapsed <= budget:
		case elapsed > 2*budget:
			if s.reaped.CompareAndSwap(false, true) {
				reaped++
				s.esc.Store(escReaped)
				l.tenantReaps.Add(1)
				l.attacksContained.Add(1)
				l.noteCrash(s.Thread.LockOwner(), "watchdog: live call exceeded its execution budget")
			}
			continue
		case elapsed > budget+budget/2:
			if s.esc.CompareAndSwap(escWarned, escAbort) || s.esc.CompareAndSwap(escNone, escAbort) {
				l.tenantAborts.Add(1)
			}
		default:
			if s.esc.CompareAndSwap(escNone, escWarned) {
				l.tenantWarns.Add(1)
			}
		}
		live = true
	}
	return reaped, live
}
