package hodor

import (
	"testing"

	"plibmc/internal/mono"
	"plibmc/internal/pku"
	"plibmc/internal/proc"
	"plibmc/internal/shm"
)

var partsSink int64

//go:noinline
func partsNoop() {}

// deferRecover has the shape of Call's unwind protection and nothing else.
func deferRecover(errp *error) {
	defer func() {
		if r := recover(); r != nil {
			*errp = &CrashError{Cause: r}
		}
	}()
	partsNoop()
}

// BenchmarkGateParts prices each piece of a warm crossing on its own, on
// the shape memcached sessions have (a fixed-key library domain plus a
// virtual tenant domain), so a change to the gate can say which row it
// moved (make bench-gate; the rows are tabulated in DESIGN.md §13). The
// coarse clock ticks throughout, as it does under any open store: clock is
// a precise read, clock-coarse the load admission makes instead. The parts
// need not sum to the whole: each loop keeps its own lines hot.
func BenchmarkGateParts(b *testing.B) {
	mono.Hold()
	defer mono.Release()
	h := shm.New(4 * shm.PageSize)
	pt := pku.NewPageTable(h)
	dom, _ := NewDomain(h, pt)
	lib := NewLibrary("libparts", 0, dom)
	vt, err := pku.NewVTable(pt)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := proc.NewProcess(0, h, 0x10000)
	res, _ := Loader{}.Load(p, Binary{}, lib)
	t := p.NewThread()
	s, _ := res.Attach(t, lib)
	s.Tenant = NewVirtualDomain(h, pt, vt)
	if err := s.Tenant.Protect(shm.PageSize, shm.PageSize); err != nil {
		b.Fatal(err)
	}
	noop := func(*proc.Thread, struct{}) (struct{}, error) { return struct{}{}, nil }
	if _, err := Call(s, noop, struct{}{}); err != nil { // warm the mapping, sync the thread
		b.Fatal(err)
	}

	b.Run("clock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partsSink += mono.Now()
		}
	})
	b.Run("clock-coarse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partsSink += mono.Coarse()
		}
	})
	b.Run("admit", func(b *testing.B) {
		start := mono.Now()
		for i := 0; i < b.N; i++ {
			if err := lib.admit(s, start); err != nil {
				b.Fatal(err)
			}
		}
		s.callStart.Store(0)
	})
	b.Run("bind-unbind", func(b *testing.B) {
		v := s.Tenant.VKey
		for i := 0; i < b.N; i++ {
			if _, err := vt.Bind(v); err != nil {
				b.Fatal(err)
			}
			vt.Unbind(v)
		}
	})
	b.Run("counters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.calls.Add(1)
			s.crossings.Add(1)
		}
	})
	b.Run("wrpkru-x2", func(b *testing.B) {
		saved := t.PKRU()
		amp := saved.WithAccess(dom.Key)
		for i := 0; i < b.N; i++ {
			proc.WRPKRU(t, amp)
			proc.WRPKRU(t, saved)
		}
	})
	b.Run("defer-recover", func(b *testing.B) {
		var err error
		for i := 0; i < b.N; i++ {
			deferRecover(&err)
		}
	})
	b.Run("empty-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Call(s, noop, struct{}{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
