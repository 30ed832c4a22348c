// Package proc models the collection of independent client processes that
// share one protected-library store.
//
// In the paper, clients are ordinary Linux processes: each maps the shared
// heap at its own address, runs its own threads, carries its own credentials
// (the loader briefly assumes the library owner's effective UID during
// initialization), and can die at any moment — by SIGKILL or by a fault in
// one of its threads — without corrupting the library. We reproduce those
// properties with simulated processes inside one Go program: each Process
// owns a distinct heap view, a UID/EUID pair, and a kill flag that the Hodor
// runtime consults to implement its "in-library calls run to completion"
// guarantee. A Thread corresponds to a client thread; library code treats
// the pair (process ID, thread ID) as its lock-owner identity.
package proc

import (
	"fmt"
	"sync/atomic"

	"plibmc/internal/pku"
	"plibmc/internal/shm"
)

// ErrKilled is the panic value delivered to a thread of a killed process
// when it attempts to run application code (the SIGKILL analog).
type ErrKilled struct{ PID int }

func (e *ErrKilled) Error() string { return fmt.Sprintf("proc: process %d was killed", e.PID) }

// nextPID only counts up: a pid is never reissued, so the token of a
// process that left names no later process.
var nextPID atomic.Int64

// A lock-owner token's thread field is tidBits wide, so one process has at
// most MaxThreads threads: the next would take process ID+1's first token.
const tidBits, MaxThreads = 20, 1<<20 - 2

// TokenPID returns the ID of the process whose thread holds token.
func TokenPID(token uint64) int { return int(token >> tidBits) }

// Process is one simulated client (or bookkeeper) process.
type Process struct {
	ID  int
	UID int // real user ID

	euid    atomic.Int64
	view    *shm.View
	killed  atomic.Bool
	nextTID atomic.Int64

	// wrpkruCount counts executions of the (simulated) wrpkru instruction
	// in this process, exposed so tests can verify trampoline behaviour.
	wrpkruCount atomic.Int64
}

// NewProcess creates a process owned by uid, with the heap mapped at base.
// Each process should use a distinct base so that position independence of
// heap data is genuinely exercised.
func NewProcess(uid int, h *shm.Heap, base uint64) (*Process, error) {
	v, err := h.Map(base)
	if err != nil {
		return nil, err
	}
	p := &Process{ID: int(nextPID.Add(1)), UID: uid, view: v}
	p.euid.Store(int64(uid))
	return p, nil
}

// View returns this process's mapping of the shared heap.
func (p *Process) View() *shm.View { return p.view }

// EUID returns the current effective user ID.
func (p *Process) EUID() int { return int(p.euid.Load()) }

// SetEUID changes the effective user ID. Hodor's loader uses this to run
// library initialization with the library owner's credentials and then
// revert (paper §3.3).
func (p *Process) SetEUID(uid int) { p.euid.Store(int64(uid)) }

// Kill marks the process as killed, the SIGKILL analog. Threads currently
// executing inside a protected-library call are permitted to finish (Hodor's
// guarantee); everything else stops at its next cancellation point.
func (p *Process) Kill() { p.killed.Store(true) }

// Killed reports whether the process has been killed.
func (p *Process) Killed() bool { return p.killed.Load() }

// NewThread creates a thread of this process. The thread's pkru register
// starts fully restricted for all non-default keys, which is the state
// Hodor's injected initialization routine establishes before main runs.
// It panics past MaxThreads, where its token would alias another pid's.
func (p *Process) NewThread() *Thread {
	tid := p.nextTID.Add(1)
	if tid > MaxThreads {
		panic(fmt.Sprintf("proc: process %d has used all %d thread IDs", p.ID, MaxThreads))
	}
	t := &Thread{
		Proc: p,
		TID:  int(tid),
	}
	t.pkru = pku.AllRestricted()
	return t
}

// Thread is one client thread: a goroutine that has bound itself to a
// simulated process. A Thread must be used by only one goroutine at a time,
// exactly as an OS thread runs one flow of control. Every gate crossing
// writes its register and library flag, so 64 bytes of padding at each
// end keep them off the lines of whatever the allocator puts beside it.
type Thread struct {
	_    [64]byte
	Proc *Process
	TID  int

	pkru      pku.PKRU
	inLibrary bool
	// vtGen caches the pkey-virtualization mapping generation this thread
	// last synchronized its register against (libmpk-style lazy PKRU sync;
	// see pku.VTable). Only the hodor trampoline reads or writes it.
	vtGen uint64
	_     [64]byte
}

// VTGen returns the virtual-key mapping generation this thread last
// synchronized its pkru register against.
func (t *Thread) VTGen() uint64 { return t.vtGen }

// SetVTGen records the mapping generation after a lazy PKRU sync.
func (t *Thread) SetVTGen(g uint64) { t.vtGen = g }

// PKRU returns the thread's current protection-key register.
func (t *Thread) PKRU() pku.PKRU { return t.pkru }

// WRPKRU executes the simulated wrpkru instruction, replacing the thread's
// register. On hardware this instruction is unprivileged; Hodor makes it
// safe by guaranteeing — via its loader's binary scan and hardware
// breakpoints (see internal/hodor) — that the only executable instances
// live inside trampolines. In this simulation the same invariant holds
// structurally: the hodor package is the only caller outside tests.
func WRPKRU(t *Thread, v pku.PKRU) {
	t.Proc.wrpkruCount.Add(1)
	t.pkru = v
}

// WRPKRUCount returns how many times this process has executed wrpkru.
func (p *Process) WRPKRUCount() int64 { return p.wrpkruCount.Load() }

// EnterLibrary marks the thread as executing inside a protected-library
// call. It returns an error if the process was killed before the call
// began — a killed process cannot initiate new calls.
func (t *Thread) EnterLibrary() error {
	if t.inLibrary {
		return fmt.Errorf("proc: nested protected-library call on thread %d.%d", t.Proc.ID, t.TID)
	}
	if t.Proc.Killed() {
		return &ErrKilled{PID: t.Proc.ID}
	}
	t.inLibrary = true
	return nil
}

// ExitLibrary marks the thread as back in application code.
func (t *Thread) ExitLibrary() { t.inLibrary = false }

// InLibrary reports whether the thread is inside a protected-library call.
func (t *Thread) InLibrary() bool { return t.inLibrary }

// CheckAlive is a cancellation point for application (non-library) code.
// It panics with *ErrKilled if the process has been killed, unless the
// thread is inside a library call — those run to completion.
func (t *Thread) CheckAlive() {
	if !t.inLibrary && t.Proc.Killed() {
		panic(&ErrKilled{PID: t.Proc.ID})
	}
}

// LockOwner returns the token this thread uses for heap-resident locks:
// pid<<20 | tid+1, nonzero and unique across (process, thread) pairs.
func (t *Thread) LockOwner() uint64 {
	return uint64(t.Proc.ID)<<tidBits | uint64(t.TID+1)
}
