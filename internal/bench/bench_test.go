package bench

import (
	"errors"
	"testing"
	"time"

	"plibmc/internal/ycsb"
	"plibmc/memcached"
)

func TestFixturesAllKinds(t *testing.T) {
	for _, kind := range []Kind{Baseline, PlibHodor, PlibNoHodor} {
		t.Run(kind.String(), func(t *testing.T) {
			f, err := NewFixture(kind, Options{TempDir: t.TempDir(), HeapBytes: 16 << 20, HashPower: 10})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			th, err := f.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Close()
			if err := th.Set([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := th.Get([]byte("k")); err != nil {
				t.Fatal(err)
			}
			if err := th.Set([]byte("n"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			if err := th.Incr([]byte("n"), 1); err != nil {
				t.Fatal(err)
			}
			if err := th.Delete([]byte("k")); err != nil {
				t.Fatal(err)
			}
			if err := th.Get([]byte("k")); !errors.Is(err, memcached.ErrNotFound) {
				t.Fatalf("expected miss, got %v", err)
			}
		})
	}
}

func TestOpLatencyAllOps(t *testing.T) {
	f, err := NewFixture(PlibHodor, Options{TempDir: t.TempDir(), HeapBytes: 16 << 20, HashPower: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, op := range []Op{OpGet, OpSet, OpDelete, OpIncr} {
		h, err := OpLatency(f, op, 128, 100, 500)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if h.Count() < 400 {
			t.Fatalf("%v recorded only %d samples", op, h.Count())
		}
		if h.Mean() <= 0 || h.Mean() > 100*time.Millisecond {
			t.Fatalf("%v mean latency %v implausible", op, h.Mean())
		}
	}
}

func TestThroughputRuns(t *testing.T) {
	f, err := NewFixture(PlibNoHodor, Options{TempDir: t.TempDir(), HeapBytes: 32 << 20, HashPower: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := ycsb.WriteHeavy128(1000)
	if err := Preload(f, w); err != nil {
		t.Fatal(err)
	}
	ktps, err := Throughput(f, w, 2, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ktps <= 0 {
		t.Fatalf("throughput = %f", ktps)
	}
}

func TestThroughputBaseline(t *testing.T) {
	f, err := NewFixture(Baseline, Options{TempDir: t.TempDir(), ServerThreads: 2, HeapBytes: 32 << 20, HashPower: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := ycsb.ReadHeavy128(500)
	if err := Preload(f, w); err != nil {
		t.Fatal(err)
	}
	ktps, err := Throughput(f, w, 2, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ktps <= 0 {
		t.Fatalf("throughput = %f", ktps)
	}
}

func TestEmptyCallMicrobenches(t *testing.T) {
	h, err := EmptyHodorCall(10000)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count() == 0 || h.Mean() > 10*time.Microsecond {
		t.Fatalf("hodor empty call: %v", h)
	}
	u, err := UDSRoundTrip(t.TempDir(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if u.Count() != 500 || u.Mean() <= 0 {
		t.Fatalf("uds roundtrip: %v", u)
	}
	// The paper's two-orders-of-magnitude gap: assert at least one order
	// to be robust on shared CI hardware.
	if u.Mean() < 5*h.Mean() {
		t.Fatalf("UDS (%v) should be far slower than an empty Hodor call (%v)", u.Mean(), h.Mean())
	}
	t.Logf("empty hodor call %v; UDS datagram RTT %v (%.0fx)", h.Mean(), u.Mean(), float64(u.Mean())/float64(h.Mean()))
}

func TestKindString(t *testing.T) {
	if Baseline.String() == "" || PlibHodor.String() == "" || PlibNoHodor.String() == "" || Kind(9).String() != "unknown" {
		t.Fatal("Kind names")
	}
	for _, op := range []Op{OpGet, OpSet, OpDelete, OpIncr} {
		if op.String() == "" {
			t.Fatal("op name")
		}
	}
}
