package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestExpandBasic(t *testing.T) {
	s, c := newStore(t, 1<<23, Options{HashPower: 6, NumItemLocks: 16})
	const n = 1000
	for i := 0; i < n; i++ {
		if err := c.Set([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("v%d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.StartExpand(c, 10); err != nil {
		t.Fatal(err)
	}
	if !s.Expanding() {
		t.Fatal("should be expanding")
	}
	// Every key must be reachable at every stage of the migration.
	for s.Expanding() {
		moved, err := s.ExpandStep(c, 3)
		if err != nil {
			t.Fatal(err)
		}
		if moved == 0 && s.Expanding() {
			t.Fatal("no progress while still expanding")
		}
		for i := 0; i < n; i += 97 {
			k := []byte(fmt.Sprintf("key-%d", i))
			if _, _, _, err := c.Get(k); err != nil {
				t.Fatalf("key %d lost mid-expansion: %v", i, err)
			}
		}
	}
	if s.HashPower() != 10 {
		t.Fatalf("HashPower = %d", s.HashPower())
	}
	for i := 0; i < n; i++ {
		v, _, _, err := c.Get([]byte(fmt.Sprintf("key-%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d after expansion: %q, %v", i, v, err)
		}
	}
	if st := s.Stats(); st.CurrItems != n {
		t.Fatalf("CurrItems = %d", st.CurrItems)
	}
}

func TestExpandValidation(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 6, NumItemLocks: 16})
	if err := s.StartExpand(c, 31); err == nil {
		t.Fatal("absurd power should fail")
	}
	if err := s.StartExpand(c, 6); err == nil {
		t.Fatal("non-growing expansion should fail")
	}
	if err := s.StartExpand(c, 3); err == nil {
		t.Fatal("below lock stripe should fail")
	}
	if err := s.StartExpand(c, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.StartExpand(c, 9); err == nil {
		t.Fatal("double expansion should fail")
	}
	if err := s.ResizeTo(c, 9); err == nil {
		t.Fatal("stop-the-world resize during expansion should fail")
	}
	// No expansion: ExpandStep is a no-op after completion.
	for s.Expanding() {
		if _, err := s.ExpandStep(c, 64); err != nil {
			t.Fatal(err)
		}
	}
	if moved, err := s.ExpandStep(c, 64); err != nil || moved != 0 {
		t.Fatalf("step after completion = %d, %v", moved, err)
	}
}

func TestExpandMutationsDuringMigration(t *testing.T) {
	// Sets, deletes, and overwrites interleaved with migration steps:
	// routing must stay coherent whichever table currently owns a key.
	s, c := newStore(t, 1<<23, Options{HashPower: 6, NumItemLocks: 16})
	model := map[string]string{}
	put := func(k, v string) {
		if err := c.Set([]byte(k), []byte(v), 0, 0); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	del := func(k string) {
		err := do(c, BatchOp{Code: BatchDelete, Key: []byte(k)}).Err
		if _, ok := model[k]; ok != (err == nil) {
			t.Fatalf("delete %s: %v (model %v)", k, err, ok)
		}
		delete(model, k)
	}
	for i := 0; i < 500; i++ {
		put(fmt.Sprintf("key-%d", i), fmt.Sprintf("v%d", i))
	}
	if err := s.StartExpand(c, 9); err != nil {
		t.Fatal(err)
	}
	step := 0
	for s.Expanding() {
		if _, err := s.ExpandStep(c, 2); err != nil {
			t.Fatal(err)
		}
		put(fmt.Sprintf("new-%d", step), "fresh")
		put(fmt.Sprintf("key-%d", step%500), fmt.Sprintf("updated-%d", step))
		del(fmt.Sprintf("key-%d", (step*7+3)%500))
		step++
	}
	for k, want := range model {
		v, _, _, err := c.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("key %s after expansion = %q, %v (want %q)", k, v, err, want)
		}
	}
	if st := s.Stats(); st.CurrItems != uint64(len(model)) {
		t.Fatalf("CurrItems = %d, model %d", st.CurrItems, len(model))
	}
}

func TestExpandConcurrentClients(t *testing.T) {
	s, setup := newStore(t, 1<<24, Options{HashPower: 7, NumItemLocks: 32})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := setup.Set([]byte(fmt.Sprintf("key-%d", i)), []byte("stable"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.NewCtx(uint64(id + 10))
			defer c.Close()
			i := 0
			for !stop.Load() {
				k := []byte(fmt.Sprintf("key-%d", (id*511+i)%n))
				if i%4 == 0 {
					if err := c.Set(k, []byte("stable"), 0, 0); err != nil {
						errCh <- err
						return
					}
				} else {
					if _, _, _, err := c.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
						errCh <- err
						return
					}
				}
				i++
			}
		}(w)
	}
	mctx := s.NewCtx(99)
	if err := s.StartExpand(mctx, 11); err != nil {
		t.Fatal(err)
	}
	for s.Expanding() {
		if _, err := s.ExpandStep(mctx, 8); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// All keys present; writers only ever Set existing keys.
	for i := 0; i < n; i++ {
		if _, _, _, err := setup.Get([]byte(fmt.Sprintf("key-%d", i))); err != nil {
			t.Fatalf("key %d lost: %v", i, err)
		}
	}
	if s.HashPower() != 11 {
		t.Fatalf("HashPower = %d", s.HashPower())
	}
}

func TestMaintainerDrivesExpansion(t *testing.T) {
	s, c := newStore(t, 1<<23, Options{HashPower: 6, NumItemLocks: 16})
	m := s.NewMaintainer(2)
	m.ExpandBatch = 16
	for i := 0; i < 200; i++ { // load factor 200/64 > 1.5
		c.Set([]byte(fmt.Sprintf("key-%d", i)), []byte("v"), 0, 0)
	}
	r := m.RunOnce()
	if !r.Resized || !s.Expanding() {
		t.Fatalf("maintainer should start expansion: %+v expanding=%v", r, s.Expanding())
	}
	for i := 0; i < 100 && s.Expanding(); i++ {
		m.RunOnce()
	}
	if s.Expanding() {
		t.Fatal("expansion never finished")
	}
	if s.HashPower() != 7 {
		t.Fatalf("HashPower = %d", s.HashPower())
	}
	for i := 0; i < 200; i++ {
		if _, _, _, err := c.Get([]byte(fmt.Sprintf("key-%d", i))); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
}

func TestFlushAndSweepDuringExpansion(t *testing.T) {
	s, c := newStore(t, 1<<23, Options{HashPower: 6, NumItemLocks: 16})
	now := int64(1000)
	s.SetClock(func() int64 { return now })
	for i := 0; i < 300; i++ {
		exp := int64(0)
		if i%3 == 0 {
			exp = 10
		}
		c.Set([]byte(fmt.Sprintf("key-%d", i)), []byte("v"), 0, exp)
	}
	if err := s.StartExpand(c, 9); err != nil {
		t.Fatal(err)
	}
	s.ExpandStep(c, 20) // partially migrated
	now = 2000
	if removed := c.SweepExpired(); removed != 100 {
		t.Fatalf("sweep during expansion removed %d, want 100", removed)
	}
	c.FlushAll()
	if st := s.Stats(); st.CurrItems != 0 {
		t.Fatalf("flush during expansion left %d items", st.CurrItems)
	}
	for s.Expanding() {
		s.ExpandStep(c, 64)
	}
	if err := c.Set([]byte("after"), []byte("ok"), 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestExpansionSurvivesCheckpointReload(t *testing.T) {
	// A heap image written mid-expansion must reopen with routing intact.
	s, c := newStore(t, 1<<23, Options{HashPower: 6, NumItemLocks: 16})
	for i := 0; i < 400; i++ {
		c.Set([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("v%d", i)), 0, 0)
	}
	if err := s.StartExpand(c, 9); err != nil {
		t.Fatal(err)
	}
	s.ExpandStep(c, 13)

	// Reattach (same heap, new handle — like a process restart without
	// even flushing to disk).
	s2, err := Attach(s.A)
	if err != nil {
		t.Fatal(err)
	}
	s2.ResetGate()
	c2 := s2.NewCtx(50)
	if !s2.Expanding() {
		t.Fatal("expansion state lost on reattach")
	}
	for i := 0; i < 400; i++ {
		v, _, _, err := c2.Get([]byte(fmt.Sprintf("key-%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d after reattach: %q, %v", i, v, err)
		}
	}
	for s2.Expanding() {
		if _, err := s2.ExpandStep(c2, 64); err != nil {
			t.Fatal(err)
		}
	}
	if s2.HashPower() != 9 {
		t.Fatalf("HashPower = %d", s2.HashPower())
	}
}

// TestQuickModelWithExpansion drives random operations with random
// expansion steps interleaved, mirroring everything on a Go map — the
// model check for the riskiest routing code in the store.
func TestQuickModelWithExpansion(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, c := newStore(t, 1<<23, Options{HashPower: 5, NumItemLocks: 8})
		model := map[string]string{}
		expandPower := uint(6)
		for op := 0; op < 600; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				k := fmt.Sprintf("key-%02d", rng.Intn(60))
				v := fmt.Sprintf("val-%d", rng.Intn(1000))
				if err := c.Set([]byte(k), []byte(v), 0, 0); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			case 4, 5, 6:
				k := fmt.Sprintf("key-%02d", rng.Intn(60))
				v, _, _, err := c.Get([]byte(k))
				want, ok := model[k]
				if ok != (err == nil) || (ok && string(v) != want) {
					t.Fatalf("seed %d op %d: get %s = %q,%v want %q,%v", seed, op, k, v, err, want, ok)
				}
			case 7:
				k := fmt.Sprintf("key-%02d", rng.Intn(60))
				err := do(c, BatchOp{Code: BatchDelete, Key: []byte(k)}).Err
				if _, ok := model[k]; ok != (err == nil) {
					t.Fatalf("seed %d: delete %s = %v", seed, k, err)
				}
				delete(model, k)
			case 8:
				if !s.Expanding() && expandPower <= 9 {
					if err := s.StartExpand(c, expandPower); err != nil {
						t.Fatal(err)
					}
					expandPower++
				}
			case 9:
				if s.Expanding() {
					if _, err := s.ExpandStep(c, 1+rng.Intn(4)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for s.Expanding() {
			s.ExpandStep(c, 64)
		}
		for k, want := range model {
			v, _, _, err := c.Get([]byte(k))
			if err != nil || string(v) != want {
				t.Fatalf("seed %d final: %s = %q,%v want %q", seed, k, v, err, want)
			}
		}
		if st := s.Stats(); st.CurrItems != uint64(len(model)) {
			t.Fatalf("seed %d: CurrItems %d, model %d", seed, st.CurrItems, len(model))
		}
	}
}
