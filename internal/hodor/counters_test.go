package hodor

import (
	"errors"
	"testing"
	"time"

	"plibmc/internal/pku"
	"plibmc/internal/proc"
	"plibmc/internal/shm"
)

// TestMetricsScriptedRun pins what the gate counts, event by event, on the
// shape memcached sessions have (a fixed-key library domain, a virtual
// tenant domain per session): clean calls, a call from a killed process, a
// pin-exhaustion rejection, a crash that is repaired, a live call reaped
// over budget and its zombie's re-entry. The expected values are the ones
// the gate produced before its warm path went lock-free (ISSUE 21): a
// faster crossing must not count differently.
func TestMetricsScriptedRun(t *testing.T) {
	heap := shm.New(32 * shm.PageSize)
	pt := pku.NewPageTable(heap)
	dom, err := NewDomain(heap, pt)
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary("libscript", 0, dom)
	lib.OnRecover(func(*CrashError) error { return nil })
	lib.LiveCallBudget = 10 * time.Millisecond
	vt, err := pku.NewVTable(pt)
	if err != nil {
		t.Fatal(err)
	}
	page := uint64(0)
	open := func() (*proc.Process, *Session) {
		t.Helper()
		p, err := proc.NewProcess(1000, heap, 0x10000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (Loader{}).Load(p, Binary{}, lib)
		if err != nil {
			t.Fatal(err)
		}
		s, err := res.Attach(p.NewThread(), lib)
		if err != nil {
			t.Fatal(err)
		}
		s.Tenant = NewVirtualDomain(heap, pt, vt)
		page++
		if err := s.Tenant.Protect(page*shm.PageSize, shm.PageSize); err != nil {
			t.Fatal(err)
		}
		return p, s
	}
	noop := func(*proc.Thread, struct{}) (struct{}, error) { return struct{}{}, nil }
	healthy := func() {
		t.Helper()
		waitFor(t, 2*time.Second, "library healthy", func() bool {
			return !lib.Recovering() && !lib.Poisoned()
		})
	}

	// 1. Clean calls. The first one maps the tenant key and lazily syncs
	// the thread; every later one is warm and costs exactly two wrpkru.
	pa, sa := open()
	if _, err := Call(sa, noop, struct{}{}); err != nil {
		t.Fatal(err)
	}
	const warm = 6
	w0 := pa.WRPKRUCount()
	for i := 0; i < warm; i++ {
		if _, err := Call(sa, noop, struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	if d := pa.WRPKRUCount() - w0; d != 2*warm {
		t.Fatalf("%d warm calls executed %d wrpkru, want %d", warm, d, 2*warm)
	}

	// 2. A killed process cannot start a call.
	pb, sb := open()
	pb.Kill()
	var killed *proc.ErrKilled
	if _, err := Call(sb, noop, struct{}{}); !errors.As(err, &killed) {
		t.Fatalf("call of killed process = %v, want ErrKilled", err)
	}

	// 3. Pin exhaustion: strangers pin every bindable hardware key (evicting
	// sa's idle mapping on the way), so sa's bind is refused as backpressure.
	var held []pku.VKey
	for {
		v := vt.AllocVirtual()
		if _, err := vt.Bind(v); err != nil {
			if !errors.Is(err, pku.ErrAllKeysPinned) {
				t.Fatal(err)
			}
			vt.FreeVirtual(v) //nolint:errcheck
			break
		}
		held = append(held, v)
	}
	if _, err := Call(sa, noop, struct{}{}); !errors.Is(err, ErrOverloaded) || !errors.Is(err, pku.ErrAllKeysPinned) {
		t.Fatalf("call with every key pinned = %v, want ErrOverloaded wrapping ErrAllKeysPinned", err)
	}
	for _, v := range held {
		vt.Unbind(v)
		if err := vt.FreeVirtual(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Call(sa, noop, struct{}{}); err != nil {
		t.Fatalf("call after the pins cleared: %v", err)
	}

	// 4. A crash inside the library, repaired online.
	var crash *CrashError
	if _, err := Call(sa, func(*proc.Thread, struct{}) (struct{}, error) { panic("bug") }, struct{}{}); !errors.As(err, &crash) {
		t.Fatalf("crashing call = %v, want CrashError", err)
	}
	healthy()

	// 5. A live call overruns twice its budget and is reaped; once its
	// thread unwinds, the session's next call is zombie re-entry.
	_, sd := open()
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		Call(sd, func(*proc.Thread, struct{}) (struct{}, error) { //nolint:errcheck
			close(entered)
			<-release
			return struct{}{}, nil
		}, struct{}{})
	}()
	<-entered
	if n := lib.WatchdogSweep(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("sweep reaped %d calls, want 1", n)
	}
	healthy()
	close(release)
	<-done
	if _, err := Call(sd, noop, struct{}{}); !errors.Is(err, ErrSessionReaped) {
		t.Fatalf("zombie re-entry = %v, want ErrSessionReaped", err)
	}

	got := lib.Metrics()
	want := Metrics{
		Calls:             10,
		Crossings:         9,
		Rejected:          3,
		Crashes:           1,
		Recoveries:        2,
		GateRejections:    1,
		AttacksContained:  2,
		TenantCallsReaped: 1,
	}
	if got != want {
		t.Fatalf("metrics after the scripted run:\n got %+v\nwant %+v", got, want)
	}
	if n := vt.Pins(sa.Tenant.VKey); n != 0 {
		t.Fatalf("tenant key still holds %d pins at quiescence", n)
	}
}
