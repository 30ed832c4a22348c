package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuiesceBlocksAndDrains(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	c.Set([]byte("k"), []byte("v"), 0, 0)

	s.Quiesce()
	// While quiesced, an operation from another context must block.
	opDone := make(chan struct{})
	go func() {
		c2 := s.NewCtx(2)
		c2.Set([]byte("k2"), []byte("v2"), 0, 0)
		close(opDone)
	}()
	select {
	case <-opDone:
		t.Fatal("operation ran during quiesce")
	case <-time.After(20 * time.Millisecond):
	}
	s.Unquiesce()
	select {
	case <-opDone:
	case <-time.After(time.Second):
		t.Fatal("operation never resumed after Unquiesce")
	}
	if _, _, _, err := c.Get([]byte("k2")); err != nil {
		t.Fatalf("post-quiesce get: %v", err)
	}
}

// TestQuiesceWaitsForInFlight holds an operation open in each of the two
// places the gate counts one — a reader slot's op word, and, for a context
// that found every slot taken, the store-wide word — and Quiesce must wait
// for it to drain.
func TestQuiesceWaitsForInFlight(t *testing.T) {
	s, holder := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16, ReaderSlots: 1})
	overflow := s.NewCtx(2)
	if holder.rdSlot == 0 || overflow.rdSlot != 0 {
		t.Fatal("want one slot holder and one slotless context")
	}
	for _, c := range []*Ctx{holder, overflow} {
		// Hold an "operation" open by entering the gate manually.
		c.enterOp()
		if counted := c.opWord == 0; counted != (c == overflow) {
			t.Fatalf("context %d: counted in the gate word = %v", c.owner, counted)
		}
		if n, _ := s.InFlightOps(); n != 1 {
			t.Fatalf("context %d: InFlightOps = %d, want 1", c.owner, n)
		}
		quiesced := make(chan struct{})
		go func() {
			s.Quiesce()
			close(quiesced)
		}()
		select {
		case <-quiesced:
			t.Fatalf("context %d: Quiesce returned while an operation was in flight", c.owner)
		case <-time.After(20 * time.Millisecond):
		}
		c.exitOp()
		select {
		case <-quiesced:
		case <-time.After(time.Second):
			t.Fatalf("context %d: Quiesce never completed after drain", c.owner)
		}
		s.Unquiesce()
	}
}

// TestZombieExitOntoReclaimedSlot: a slot holder is reaped mid-operation,
// repair retires its slot and clears the gate, and a new context claims the
// slot and enters. The zombie's late exitOp lands on the new owner's op
// word and must leave it: the live operation stays counted, so Quiesce
// still waits for it.
func TestZombieExitOntoReclaimedSlot(t *testing.T) {
	s, zombie := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	zombie.enterOp()
	if zombie.opWord == 0 {
		t.Fatal("a slot holder counted in the gate word")
	}
	s.RetireDeadReaders(deadOnly(zombie.owner))
	s.RepairGate()
	if n, _ := s.InFlightOps(); n != 0 {
		t.Fatalf("InFlightOps = %d after RepairGate, want 0", n)
	}
	live := s.NewCtx(2)
	if live.rdSlot != zombie.rdSlot {
		t.Fatal("the live context did not reclaim the retired slot")
	}
	live.enterOp()
	zombie.exitOp()
	if n, _ := s.InFlightOps(); n != 1 {
		t.Fatalf("InFlightOps = %d after the zombie's exit, want 1 (live op eaten)", n)
	}
	if s.QuiesceWithAbort(func() bool { return true }) {
		s.Unquiesce()
		t.Fatal("quiesced with the live operation in flight")
	}
	live.exitOp()
	if n, _ := s.InFlightOps(); n != 0 {
		t.Fatalf("InFlightOps = %d, want 0", n)
	}
}

func TestGateReentrancy(t *testing.T) {
	// An operation that internally triggers eviction (which is also
	// gated code) must not deadlock on the gate. Exercise with a tiny
	// memory limit so Set evicts inline.
	s, c := newStore(t, 1<<21, Options{HashPower: 8, NumItemLocks: 16, MemLimit: 1 << 19, FixedSize: true})
	val := make([]byte, 1024)
	for i := 0; i < 1500; i++ {
		if err := c.Set([]byte(fmt.Sprintf("k%04d", i)), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("expected inline evictions under the gate")
	}
}

func TestConcurrentQuiesceUnderLoad(t *testing.T) {
	s, _ := newStore(t, 1<<23, Options{HashPower: 10, NumItemLocks: 64, FixedSize: true})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.NewCtx(uint64(id + 1))
			defer c.Close()
			i := 0
			for !stop.Load() {
				k := []byte(fmt.Sprintf("w%d-%d", id, i%200))
				c.Set(k, []byte("v"), 0, 0)
				c.Get(k)
				i++
			}
		}(w)
	}
	// Repeated quiesce/unquiesce cycles while clients hammer the store:
	// each quiesced window must observe zero in-flight operations.
	for i := 0; i < 50; i++ {
		s.Quiesce()
		if g, _ := s.InFlightOps(); g != 0 {
			s.Unquiesce()
			stop.Store(true)
			wg.Wait()
			t.Fatalf("quiesced with %d operations still in flight", g)
		}
		s.Unquiesce()
	}
	stop.Store(true)
	wg.Wait()
}

func TestMGet(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	for i := 0; i < 10; i += 2 {
		if err := c.Set([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), uint32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	var keys [][]byte
	for i := 0; i < 10; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%d", i)))
	}
	res := c.MGet(keys)
	if len(res) != 10 {
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if i%2 == 0 {
			if !r.Found || string(r.Value) != fmt.Sprintf("v%d", i) || r.Flags != uint32(i) {
				t.Fatalf("result %d = %+v", i, r)
			}
		} else if r.Found {
			t.Fatalf("missing key %d reported found", i)
		}
	}
	// Each returned value must be an independent copy.
	res[0].Value[0] = 'X'
	v, _, _, _ := c.Get([]byte("k0"))
	if string(v) != "v0" {
		t.Fatal("MGet results alias store memory")
	}
	if out := c.MGet(nil); len(out) != 0 {
		t.Fatal("empty MGet")
	}
}
