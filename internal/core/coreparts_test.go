package core

import (
	"fmt"
	"testing"

	"plibmc/internal/mono"
	"plibmc/internal/ring"
)

var partsSink uint64

// BenchmarkCoreParts prices what core.Ctx does once per operation, each
// piece alone beside the whole, on lib_read_128's shape (20 B keys; 128 B
// and 5 KB values), so a change to the store's fixed per-op cost can say
// which row it moved (make bench-gate; the rows are tabulated in DESIGN.md
// §6). The sampler rows include the op gate they cannot run without: of
// every 8 operations 7 take the unsampled row and one the sampled row. Each
// whole comes three ways: alone with no store holding the coarse clock
// (the clock row: a precise read per admission), alone with it ticking
// (what a session drives: one load of the word), and as one of 64 in an
// ExecBatch, which pays the gate, sampler, clock and statistics once per
// batch. The parts need not sum to the whole: each loop keeps its own
// lines hot.
func BenchmarkCoreParts(b *testing.B) {
	const n = 64
	s, c := newStore(b, 1<<26, Options{HashPower: 12, NumItemLocks: 64})
	key := func(kind string, i int) []byte { return []byte(fmt.Sprintf("%s%016d", kind, i)) }
	v128, v5k := make([]byte, 128), make([]byte, 5<<10)
	for i := 0; i < n; i++ {
		for _, kv := range []struct {
			k []byte
			v []byte
		}{{key("user", i), v128}, {key("big5", i), v5k}} {
			if err := c.Set(kv.k, kv.v, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	k := key("user", 0)
	hash := ring.Hash(k)
	lock := s.itemLockOff(hash)
	c.lock(lock)
	it := c.findLocked(k, hash)
	c.unlock(lock)
	if it == 0 {
		b.Fatal("primed key not found")
	}
	part := func(name string, fn func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	ticking := func(run func()) { mono.Hold(); defer mono.Release(); run() }
	part("hash", func() { partsSink += ring.Hash(k) })
	part("key-capture", func() { partsSink += uint64(len(c.capture(&c.keyBuf, k))) })
	part("op-gate", func() { c.enterOp(); c.exitOp() })
	part("gate+sampler-unsampled", func() { c.latN = 0; c.opEnd(LatGet, c.opBegin()) })
	part("gate+sampler-sampled", func() { c.latN = s.latMask; c.opEnd(LatGet, c.opBegin()) })
	part("clock", func() { c.nowOK = false; partsSink += uint64(c.now()) })
	part("stat-add", func() { c.stat(statGetHits, 1) })
	part("reader-section", func() { c.beginRead(); c.endRead() })
	part("check-valid", func() {
		if !s.itemCheckValid(it) {
			b.Fatal("valid item failed its check")
		}
	})
	for _, sh := range []struct {
		name string
		key  func(i int) []byte
		vlen int
	}{
		{"hit-128B", func(i int) []byte { return key("user", i) }, 128},
		{"miss", func(i int) []byte { return key("none", i) }, 0},
		{"hit-5KB", func(i int) []byte { return key("big5", i) }, 5 << 10},
	} {
		k := sh.key(0)
		hash := ring.Hash(k)
		dst := make([]byte, 0, n*sh.vlen)
		part(sh.name+"/probe", func() {
			c.enterOp()
			if _, _, _, found, ok := c.optGet(k, hash); !ok || found != (sh.vlen > 0) {
				b.Fatal("optimistic probe fell back")
			}
			c.exitOp()
		})
		if sh.vlen > 0 {
			part(sh.name+"/copy-out", func() { partsSink += uint64(len(append(dst[:0], c.valBuf[:sh.vlen]...))) })
		}
		part(sh.name+"/get-lone", func() { c.GetAppend(dst[:0], k) }) //nolint:errcheck
		ops, res := make([]BatchOp, n), make([]BatchResult, n)
		for i := range ops {
			ops[i] = BatchOp{Code: BatchGet, Key: sh.key(i)}
		}
		ticking(func() {
			part(sh.name+"/get-lone-coarse", func() { c.GetAppend(dst[:0], k) }) //nolint:errcheck
			b.Run(sh.name+"/get-in-batch64", func(b *testing.B) {
				for i := 0; i < b.N; i += n {
					c.ExecBatch(ops, res, dst[:0])
				}
			})
		})
	}
	k5 := key("big5", 0)
	part("set-128B/set-lone", func() { c.Set(k, v128, 0, 0) }) //nolint:errcheck
	part("set-5KB/set-lone", func() { c.Set(k5, v5k, 0, 0) })  //nolint:errcheck
	sets, res := make([]BatchOp, n), make([]BatchResult, n)
	for i := range sets {
		sets[i] = BatchOp{Code: BatchSet, Key: key("user", i), Value: v128}
	}
	ticking(func() {
		part("set-128B/set-lone-coarse", func() { c.Set(k, v128, 0, 0) }) //nolint:errcheck
		part("set-5KB/set-lone-coarse", func() { c.Set(k5, v5k, 0, 0) })  //nolint:errcheck
		b.Run("set-128B/set-in-batch64", func(b *testing.B) {
			for i := 0; i < b.N; i += n {
				c.ExecBatch(sets, res, nil)
			}
		})
	})
}
