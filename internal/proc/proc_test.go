package proc

import (
	"testing"

	"plibmc/internal/pku"
	"plibmc/internal/shm"
)

func newTestProcess(t *testing.T, base uint64) *Process {
	t.Helper()
	h := shm.New(4 * shm.PageSize)
	p, err := NewProcess(1000, h, base)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProcessIdentity(t *testing.T) {
	p1 := newTestProcess(t, 0x10000)
	p2 := newTestProcess(t, 0x20000)
	if p1.ID == p2.ID {
		t.Fatal("process IDs must be unique")
	}
	if p1.UID != 1000 || p1.EUID() != 1000 {
		t.Fatalf("uid/euid = %d/%d", p1.UID, p1.EUID())
	}
	p1.SetEUID(0)
	if p1.EUID() != 0 || p1.UID != 1000 {
		t.Fatal("SetEUID should change only the effective ID")
	}
}

func TestThreadStartsRestricted(t *testing.T) {
	p := newTestProcess(t, 0x10000)
	th := p.NewThread()
	if th.PKRU() != pku.AllRestricted() {
		t.Fatalf("fresh thread pkru = %v, want fully restricted", th.PKRU())
	}
	if th.TID == p.NewThread().TID {
		t.Fatal("thread IDs must be unique within a process")
	}
}

func TestWRPKRUCounts(t *testing.T) {
	p := newTestProcess(t, 0x10000)
	th := p.NewThread()
	WRPKRU(th, 0)
	WRPKRU(th, pku.AllRestricted())
	if p.WRPKRUCount() != 2 {
		t.Fatalf("wrpkru count = %d", p.WRPKRUCount())
	}
	if th.PKRU() != pku.AllRestricted() {
		t.Fatal("WRPKRU should set the register")
	}
}

func TestEnterExitLibrary(t *testing.T) {
	p := newTestProcess(t, 0x10000)
	th := p.NewThread()
	if err := th.EnterLibrary(); err != nil {
		t.Fatal(err)
	}
	if !th.InLibrary() {
		t.Fatal("should be in library")
	}
	if err := th.EnterLibrary(); err == nil {
		t.Fatal("nested entry should fail")
	}
	th.ExitLibrary()
	if th.InLibrary() {
		t.Fatal("should have exited library")
	}
}

func TestKillSemantics(t *testing.T) {
	p := newTestProcess(t, 0x10000)
	th := p.NewThread()

	// In-library threads survive a kill until the call finishes.
	if err := th.EnterLibrary(); err != nil {
		t.Fatal(err)
	}
	p.Kill()
	th.CheckAlive() // must not panic: the call runs to completion
	th.ExitLibrary()

	// Outside the library the kill is delivered.
	func() {
		defer func() {
			if _, ok := recover().(*ErrKilled); !ok {
				t.Fatal("expected ErrKilled panic")
			}
		}()
		th.CheckAlive()
	}()

	// A killed process cannot begin new library calls.
	if err := th.EnterLibrary(); err == nil {
		t.Fatal("killed process should not enter the library")
	}
	var ek *ErrKilled
	if err := th.EnterLibrary(); err != nil {
		var ok bool
		ek, ok = err.(*ErrKilled)
		if !ok {
			t.Fatalf("error = %T, want *ErrKilled", err)
		}
	}
	if ek.PID != p.ID || ek.Error() == "" {
		t.Fatalf("ErrKilled = %+v", ek)
	}
}

func TestLockOwnerUniqueNonzero(t *testing.T) {
	p1 := newTestProcess(t, 0x10000)
	p2 := newTestProcess(t, 0x20000)
	seen := map[uint64]bool{}
	for _, p := range []*Process{p1, p2} {
		for i := 0; i < 10; i++ {
			tok := p.NewThread().LockOwner()
			if tok == 0 {
				t.Fatal("zero lock owner")
			}
			if seen[tok] {
				t.Fatalf("duplicate lock owner %#x", tok)
			}
			seen[tok] = true
		}
	}
}

func TestDistinctViewsShareHeap(t *testing.T) {
	h := shm.New(4 * shm.PageSize)
	p1, err := NewProcess(1000, h, 0x100000)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewProcess(1001, h, 0x7f00_0000_0000)
	if err != nil {
		t.Fatal(err)
	}
	p1.View().Heap().WriteBytes(64, []byte("cross-process"))
	if got := string(p2.View().Heap().Bytes(64, 13)); got != "cross-process" {
		t.Fatalf("process 2 sees %q", got)
	}
	if p1.View().Addr(64) == p2.View().Addr(64) {
		t.Fatal("the two processes should map the heap at different bases")
	}
}

// TestPIDsNeverReissued pins what makes a lock-owner token safe to read
// as defunct once its process has left: process IDs only count up, so no
// later process is ever handed a departed one's.
func TestPIDsNeverReissued(t *testing.T) {
	h := shm.New(4 * shm.PageSize)
	last := 0
	for i := 0; i < 1000; i++ {
		p, err := NewProcess(1000, h, 0x10000)
		if err != nil {
			t.Fatal(err)
		}
		if p.ID <= last {
			t.Fatalf("process %d issued pid %d after pid %d", i, p.ID, last)
		}
		last = p.ID
	}
}

// TestTokensUniqueAcrossProcesses: a token names exactly one (pid, tid),
// up to a process's last thread, and NewThread refuses the thread whose
// token would alias the next process's first.
func TestTokensUniqueAcrossProcesses(t *testing.T) {
	p := newTestProcess(t, 0x10000)
	next := newTestProcess(t, 0x20000)
	first := next.NewThread()
	p.nextTID.Store(MaxThreads - 1)
	lastTh := p.NewThread()
	if lastTh.TID != MaxThreads {
		t.Fatalf("last thread TID = %d, want %d", lastTh.TID, MaxThreads)
	}
	seen := map[uint64]*Thread{}
	for _, th := range []*Thread{lastTh, first, next.NewThread()} {
		tok := th.LockOwner()
		if TokenPID(tok) != th.Proc.ID {
			t.Errorf("thread %d.%d: token %#x decodes to pid %d", th.Proc.ID, th.TID, tok, TokenPID(tok))
		}
		if other := seen[tok]; other != nil {
			t.Errorf("threads %d.%d and %d.%d share token %#x", other.Proc.ID, other.TID, th.Proc.ID, th.TID, tok)
		}
		seen[tok] = th
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a thread past MaxThreads was created")
		}
	}()
	p.NewThread()
}
