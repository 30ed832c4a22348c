package hodor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"plibmc/internal/pku"
	"plibmc/internal/proc"
	"plibmc/internal/shm"
)

// fixture assembles a heap, page table, domain, library, process and an
// attached session — the full Hodor stack around a trivial library.
type fixture struct {
	heap *shm.Heap
	pt   *pku.PageTable
	dom  *Domain
	lib  *Library
	p    *proc.Process
	res  *LoadResult
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	h := shm.New(8 * shm.PageSize)
	pt := pku.NewPageTable(h)
	dom, err := NewDomain(h, pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := dom.ProtectAll(); err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary("libtest", 500, dom)
	p, err := proc.NewProcess(1000, h, 0x100000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Loader{}.Load(p, Binary{Name: "app"}, lib)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{heap: h, pt: pt, dom: dom, lib: lib, p: p, res: res}
}

func (f *fixture) session(t *testing.T) *Session {
	t.Helper()
	s, err := f.res.Attach(f.p.NewThread(), f.lib)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScanWRPKRU(t *testing.T) {
	text := []byte{0x90, 0x0F, 0x01, 0xEF, 0x90, 0x90, 0x0F, 0x01, 0xEF}
	got := ScanWRPKRU(text)
	if len(got) != 2 || got[0] != 1 || got[1] != 6 {
		t.Fatalf("ScanWRPKRU = %v", got)
	}
	if ScanWRPKRU([]byte{0x0F, 0x01}) != nil {
		t.Fatal("partial opcode should not match")
	}
	if ScanWRPKRU(nil) != nil {
		t.Fatal("empty text")
	}
}

func TestLoaderBreakpoints(t *testing.T) {
	mkText := func(n int) ([]byte, []int) {
		var text []byte
		var offs []int
		for i := 0; i < n; i++ {
			offs = append(offs, len(text))
			text = append(text, wrpkruOpcode...)
			text = append(text, 0x90)
		}
		return text, offs
	}

	h := shm.New(shm.PageSize)
	p, _ := proc.NewProcess(1000, h, 0x10000)

	// Three strays: all covered by breakpoints, no fallback.
	text, offs := mkText(3)
	res, err := Loader{}.Load(p, Binary{Text: text})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakpoints) != 3 || res.PageFallback {
		t.Fatalf("3 strays: bps=%v fallback=%v", res.Breakpoints, res.PageFallback)
	}
	for _, off := range offs {
		if res.TryExecute(off) == nil {
			t.Fatalf("stray at %#x should trap", off)
		}
	}
	if res.TryExecute(1) != nil {
		t.Fatal("ordinary instruction should execute")
	}

	// Six strays: four breakpoints plus page-permission fallback.
	text, offs = mkText(6)
	res, err = Loader{}.Load(p, Binary{Text: text})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakpoints) != NumBreakpointRegs || !res.PageFallback {
		t.Fatalf("6 strays: bps=%v fallback=%v", res.Breakpoints, res.PageFallback)
	}
	for _, off := range offs {
		if res.TryExecute(off) == nil {
			t.Fatalf("stray at %#x should trap in fallback mode", off)
		}
	}

	// Sanctioned trampoline instances are not strays.
	text, offs = mkText(2)
	res, err = Loader{}.Load(p, Binary{Text: text, Trampolines: offs[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakpoints) != 1 || res.Breakpoints[0] != offs[1] {
		t.Fatalf("sanctioned: bps=%v", res.Breakpoints)
	}
}

func TestLoaderRunsInitWithOwnerEUID(t *testing.T) {
	h := shm.New(shm.PageSize)
	pt := pku.NewPageTable(h)
	dom, _ := NewDomain(h, pt)
	lib := NewLibrary("libtest", 500, dom)
	var seenEUID int
	lib.OnInit(func(p *proc.Process) error {
		seenEUID = p.EUID()
		return nil
	})
	p, _ := proc.NewProcess(1000, h, 0x10000)
	if _, err := (Loader{}).Load(p, Binary{}, lib); err != nil {
		t.Fatal(err)
	}
	if seenEUID != 500 {
		t.Fatalf("init ran with euid %d, want 500 (library owner)", seenEUID)
	}
	if p.EUID() != 1000 {
		t.Fatalf("euid not reverted: %d", p.EUID())
	}
}

func TestLoaderInitFailure(t *testing.T) {
	h := shm.New(shm.PageSize)
	pt := pku.NewPageTable(h)
	dom, _ := NewDomain(h, pt)
	lib := NewLibrary("libtest", 500, dom)
	lib.OnInit(func(*proc.Process) error { return errors.New("no such file") })
	p, _ := proc.NewProcess(1000, h, 0x10000)
	if _, err := (Loader{}).Load(p, Binary{}, lib); err == nil {
		t.Fatal("Load should propagate init failure")
	}
	if p.EUID() != 1000 {
		t.Fatal("euid must be reverted even on init failure")
	}
}

func TestTrampolineAmplifiesAndRestores(t *testing.T) {
	f := newFixture(t)
	s := f.session(t)
	th := s.Thread

	before := th.PKRU()
	if before.CanRead(f.dom.Key) {
		t.Fatal("application code should start without access")
	}

	inner := func(t *proc.Thread, _ struct{}) (pku.PKRU, error) {
		return t.PKRU(), nil
	}
	during, err := Call(s, inner, struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	if !during.CanRead(f.dom.Key) || !during.CanWrite(f.dom.Key) {
		t.Fatalf("register inside call = %v: rights not amplified", during)
	}
	if th.PKRU() != before {
		t.Fatalf("register after call = %v, want %v", th.PKRU(), before)
	}
	if got := f.p.WRPKRUCount(); got != 2 {
		t.Fatalf("wrpkru executed %d times, want 2 (entry+exit)", got)
	}
	if s.InCall() || s.StackDepth() != 0 {
		t.Fatal("session should be idle after the call")
	}
}

func TestTrampolineEnforcement(t *testing.T) {
	// End to end: the same thread can touch protected memory inside a call
	// and faults outside it.
	f := newFixture(t)
	s := f.session(t)
	g := f.dom.Guard()
	th := s.Thread

	_, err := Call(s, func(t *proc.Thread, _ struct{}) (struct{}, error) {
		if err := g.Store64(t.PKRU(), 0, 42); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, nil
	}, struct{}{})
	if err != nil {
		t.Fatalf("in-call store: %v", err)
	}
	if _, err := g.Load64(th.PKRU(), 0); err == nil {
		t.Fatal("out-of-call load should fault")
	}
	var pf *pku.ProtFault
	if err := g.Store64(th.PKRU(), 0, 1); !errors.As(err, &pf) {
		t.Fatalf("out-of-call store error = %v", err)
	}
}

func TestConcurrentThreadsIsolated(t *testing.T) {
	// A thread outside the library has no access even while another thread
	// of the same process is inside a call (paper §2).
	f := newFixture(t)
	s1 := f.session(t)
	outside := f.p.NewThread()
	g := f.dom.Guard()

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := Call(s1, func(*proc.Thread, struct{}) (struct{}, error) {
			close(entered)
			<-release
			return struct{}{}, nil
		}, struct{}{})
		done <- err
	}()
	<-entered
	if _, err := g.Load64(outside.PKRU(), 0); err == nil {
		t.Fatal("concurrent outside thread must not gain access")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCrashInsideLibraryPoisons(t *testing.T) {
	f := newFixture(t)
	s := f.session(t)
	_, err := Call(s, func(*proc.Thread, struct{}) (struct{}, error) {
		panic(&shm.Fault{Off: 9999, Why: "segfault in library"})
	}, struct{}{})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CrashError", err)
	}
	if ce.Error() == "" {
		t.Fatal("empty crash message")
	}
	if !f.lib.Poisoned() {
		t.Fatal("library should be poisoned")
	}
	if _, err := Call(s, func(*proc.Thread, struct{}) (struct{}, error) {
		return struct{}{}, nil
	}, struct{}{}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("call into poisoned library = %v", err)
	}
	// Register must still have been restored by the crashed call.
	if s.Thread.PKRU().CanRead(f.dom.Key) {
		t.Fatal("register leaked amplified rights after crash")
	}
}

func TestKilledProcessCallRunsToCompletion(t *testing.T) {
	f := newFixture(t)
	s := f.session(t)
	killed := make(chan struct{})
	got, err := Call(s, func(*proc.Thread, struct{}) (string, error) {
		f.p.Kill()
		close(killed)
		return "completed", nil
	}, struct{}{})
	<-killed
	if err != nil || got != "completed" {
		t.Fatalf("call of killed process = %q, %v; want completion", got, err)
	}
	// New calls are refused.
	if _, err := Call(s, func(*proc.Thread, struct{}) (string, error) {
		return "", nil
	}, struct{}{}); err == nil {
		t.Fatal("killed process should not start new calls")
	}
}

func TestWatchdogPoisonsOverdueCalls(t *testing.T) {
	f := newFixture(t)
	f.lib.CallTimeout = 10 * time.Millisecond
	s := f.session(t)

	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		Call(s, func(*proc.Thread, struct{}) (struct{}, error) {
			close(entered)
			<-release
			return struct{}{}, nil
		}, struct{}{})
	}()
	<-entered

	// Process alive: the watchdog has nothing to do no matter how long the
	// call takes.
	if n := f.lib.WatchdogSweep(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("sweep of live process found %d overdue", n)
	}
	f.p.Kill()
	// Within the grace period: still fine.
	if n := f.lib.WatchdogSweep(time.Now()); n != 0 {
		t.Fatalf("sweep within grace period found %d overdue", n)
	}
	// Past the timeout: the call is overdue and the library is poisoned.
	if n := f.lib.WatchdogSweep(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("sweep past deadline found %d overdue, want 1", n)
	}
	if !f.lib.Poisoned() {
		t.Fatal("library should be poisoned after overdue call")
	}
	close(release)
}

func TestAttachValidation(t *testing.T) {
	f := newFixture(t)
	other, _ := proc.NewProcess(1000, f.heap, 0x200000)
	if _, err := f.res.Attach(other.NewThread(), f.lib); err == nil {
		t.Fatal("attach of foreign thread should fail")
	}
	unlinked := NewLibrary("other", 1, f.dom)
	if _, err := f.res.Attach(f.p.NewThread(), unlinked); !errors.Is(err, ErrNotLinked) {
		t.Fatalf("attach to unlinked library = %v", err)
	}
}

type copyArg struct {
	data   []byte
	copied bool
}

func (c copyArg) LibCopy() any {
	d := make([]byte, len(c.data))
	copy(d, c.data)
	return copyArg{data: d, copied: true}
}

func TestCopyArgsOption(t *testing.T) {
	f := newFixture(t)
	s := f.session(t)

	seen := func(th *proc.Thread, a copyArg) (bool, error) { return a.copied, nil }
	wasCopied, err := Call(s, seen, copyArg{data: []byte("k")})
	if err != nil || wasCopied {
		t.Fatalf("CopyArgs off: copied=%v err=%v", wasCopied, err)
	}
	f.lib.CopyArgs = true
	wasCopied, err = Call(s, seen, copyArg{data: []byte("k")})
	if err != nil || !wasCopied {
		t.Fatalf("CopyArgs on: copied=%v err=%v", wasCopied, err)
	}
}

func TestWrapRegistersEntry(t *testing.T) {
	f := newFixture(t)
	get := Wrap(f.lib, "memcached_get", func(*proc.Thread, string) (string, error) {
		return "v", nil
	})
	found := false
	for _, e := range f.lib.Entries() {
		if e == "memcached_get" {
			found = true
		}
	}
	if !found {
		t.Fatalf("entry table = %v", f.lib.Entries())
	}
	s := f.session(t)
	v, err := get(s, "k")
	if err != nil || v != "v" {
		t.Fatalf("wrapped call = %q, %v", v, err)
	}
}

func TestDomainKeyExhaustionAndRelease(t *testing.T) {
	h := shm.New(shm.PageSize)
	pt := pku.NewPageTable(h)
	var doms []*Domain
	for {
		d, err := NewDomain(h, pt)
		if err != nil {
			break
		}
		doms = append(doms, d)
	}
	if len(doms) != pku.NumKeys-1 {
		t.Fatalf("allocated %d domains, want %d", len(doms), pku.NumKeys-1)
	}
	if err := doms[0].Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDomain(h, pt); err != nil {
		t.Fatalf("alloc after release: %v", err)
	}
}

func BenchmarkEmptyTrampolineCall(b *testing.B) {
	h := shm.New(shm.PageSize)
	pt := pku.NewPageTable(h)
	dom, _ := NewDomain(h, pt)
	lib := NewLibrary("libbench", 0, dom)
	p, _ := proc.NewProcess(0, h, 0x10000)
	res, _ := Loader{}.Load(p, Binary{}, lib)
	s, _ := res.Attach(p.NewThread(), lib)
	noop := func(*proc.Thread, struct{}) (struct{}, error) { return struct{}{}, nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Call(s, noop, struct{}{}); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleCall() {
	h := shm.New(shm.PageSize)
	pt := pku.NewPageTable(h)
	dom, _ := NewDomain(h, pt)
	dom.ProtectAll()
	lib := NewLibrary("libkv", 0, dom)
	p, _ := proc.NewProcess(1000, h, 0x10000)
	res, _ := Loader{}.Load(p, Binary{}, lib)
	s, _ := res.Attach(p.NewThread(), lib)

	put := Wrap(lib, "put", func(t *proc.Thread, v uint64) (struct{}, error) {
		dom.Heap.Store64(0, v) // raw access: rights were amplified
		return struct{}{}, nil
	})
	get := Wrap(lib, "get", func(t *proc.Thread, _ struct{}) (uint64, error) {
		return dom.Heap.Load64(0), nil
	})
	put(s, 41)
	v, _ := get(s, struct{}{})
	fmt.Println(v + 1)
	// Output: 42
}

func TestLibraryMetrics(t *testing.T) {
	f := newFixture(t)
	s := f.session(t)
	noop := func(*proc.Thread, struct{}) (struct{}, error) { return struct{}{}, nil }
	for i := 0; i < 10; i++ {
		if _, err := Call(s, noop, struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	m := f.lib.Metrics()
	if m.Calls != 10 || m.Crashes != 0 || m.Rejected != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	// A crash increments both counters; subsequent calls are rejected.
	Call(s, func(*proc.Thread, struct{}) (struct{}, error) { panic("bug") }, struct{}{})
	Call(s, noop, struct{}{})
	m = f.lib.Metrics()
	if m.Calls != 11 || m.Crashes != 1 || m.Rejected != 1 {
		t.Fatalf("metrics after crash = %+v", m)
	}
}
