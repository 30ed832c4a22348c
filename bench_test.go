package plibmc

// One benchmark per table and figure of the paper's evaluation (§4), plus
// the §2 empty-call microbenchmark and the ablation benches called out in
// DESIGN.md §6. The full parameter sweeps (threads 1..40, all four
// workloads, all four series) are run by cmd/benchfig; the benchmarks here
// are the same measurements at representative points, runnable with
// `go test -bench=. -benchmem`.

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"plibmc/internal/bench"
	"plibmc/internal/core"
	"plibmc/internal/hodor"
	"plibmc/internal/pku"
	"plibmc/internal/proc"
	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
	"plibmc/internal/ycsb"
	"plibmc/memcached"
)

// --- §2: empty-call microbenchmarks (E0) ---------------------------------

func BenchmarkEmptyCallHodor(b *testing.B) {
	heap := shm.New(shm.PageSize)
	pt := pku.NewPageTable(heap)
	dom, _ := hodor.NewDomain(heap, pt)
	lib := hodor.NewLibrary("libnoop", 0, dom)
	p, _ := proc.NewProcess(0, heap, 0x10000)
	res, _ := (hodor.Loader{}).Load(p, hodor.Binary{}, lib)
	s, _ := res.Attach(p.NewThread(), lib)
	noop := func(*proc.Thread, struct{}) (struct{}, error) { return struct{}{}, nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hodor.Call(s, noop, struct{}{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmptyCallUDS(b *testing.B) {
	h, err := bench.UDSRoundTrip(b.TempDir(), b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(h.Mean().Nanoseconds()), "ns/rtt")
}

// --- Figure 5: per-operation latency --------------------------------------

func fig5Fixture(b *testing.B, kind bench.Kind) *bench.Fixture {
	b.Helper()
	f, err := bench.NewFixture(kind, bench.Options{
		TempDir: b.TempDir(), HeapBytes: 256 << 20, HashPower: 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Close)
	return f
}

func benchFig5(b *testing.B, kind bench.Kind, op bench.Op, valSize int) {
	f := fig5Fixture(b, kind)
	const records = 4096
	w := ycsb.Workload{RecordCount: records, ValueSize: valSize, ReadProportion: 1}
	if err := bench.Preload(f, w); err != nil {
		b.Fatal(err)
	}
	th, err := f.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	defer th.Close()
	if op == bench.OpIncr {
		if err := th.Set([]byte("counter"), []byte("100000")); err != nil {
			b.Fatal(err)
		}
	}
	val := make([]byte, valSize)
	key := make([]byte, 0, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = ycsb.KeyInto(key, uint64(i)%records)
		var err error
		switch op {
		case bench.OpGet:
			err = th.Get(key)
		case bench.OpSet:
			err = th.Set(key, val)
		case bench.OpDelete:
			b.StopTimer()
			th.Set(key, val) // ensure present, untimed
			b.StartTimer()
			err = th.Delete(key)
		case bench.OpIncr:
			err = th.Incr([]byte("counter"), 1)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	rows := []struct {
		name    string
		op      bench.Op
		valSize int
	}{
		{"Get128B", bench.OpGet, 128},
		{"Get5KB", bench.OpGet, 5120},
		{"Set128B", bench.OpSet, 128},
		{"Set5KB", bench.OpSet, 5120},
		{"Delete", bench.OpDelete, 128},
		{"Increment", bench.OpIncr, 128},
	}
	systems := []bench.Kind{bench.Baseline, bench.PlibHodor, bench.PlibNoHodor}
	for _, row := range rows {
		for _, sys := range systems {
			b.Run(fmt.Sprintf("%s/%s", row.name, sys), func(b *testing.B) {
				benchFig5(b, sys, row.op, row.valSize)
			})
		}
	}
}

// --- Figures 6–9: throughput vs client threads ----------------------------

func benchThroughput(b *testing.B, kind bench.Kind, serverThreads int, w ycsb.Workload, clients int) {
	f, err := bench.NewFixture(kind, bench.Options{
		TempDir: b.TempDir(), HeapBytes: 256 << 20, HashPower: 14,
		ServerThreads: serverThreads,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := bench.Preload(f, w); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	per := b.N/clients + 1
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th, err := f.NewThread()
			if err != nil {
				b.Error(err)
				return
			}
			defer th.Close()
			gen := w.NewClient(seed)
			for i := 0; i < per; i++ {
				kind, key, val := gen.Next()
				if kind == ycsb.OpRead {
					th.Get(key)
				} else {
					if err := th.Set(key, val); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.ReportMetric(float64(per*clients)/elapsed.Seconds()/1000, "KTPS")
}

// figureBench runs one figure's four series at a representative client
// count (cmd/benchfig sweeps 1..40).
func figureBench(b *testing.B, w ycsb.Workload) {
	const clients = 8
	b.Run("memcached-4srv", func(b *testing.B) { benchThroughput(b, bench.Baseline, 4, w, clients) })
	b.Run("memcached-8srv", func(b *testing.B) { benchThroughput(b, bench.Baseline, 8, w, clients) })
	b.Run("plib-hodor", func(b *testing.B) { benchThroughput(b, bench.PlibHodor, 0, w, clients) })
	b.Run("plib-nohodor", func(b *testing.B) { benchThroughput(b, bench.PlibNoHodor, 0, w, clients) })
}

func BenchmarkFigure6_WriteHeavy128(b *testing.B) { figureBench(b, ycsb.WriteHeavy128(20000)) }
func BenchmarkFigure7_WriteHeavy5K(b *testing.B)  { figureBench(b, ycsb.WriteHeavy5K(2000)) }
func BenchmarkFigure8_ReadHeavy128(b *testing.B)  { figureBench(b, ycsb.ReadHeavy128(20000)) }
func BenchmarkFigure9_ReadHeavy5K(b *testing.B)   { figureBench(b, ycsb.ReadHeavy5K(2000)) }

// --- Ablations (DESIGN.md §6) ---------------------------------------------

// Ablation 1: a single LRU list vs hash-partitioned lists — the contention
// the paper hit and fixed (§3.2).
func BenchmarkAblationLRUPartitions(b *testing.B) {
	for _, numLRUs := range []uint64{1, 32} {
		b.Run(fmt.Sprintf("lrus=%d", numLRUs), func(b *testing.B) {
			h := shm.New(256 << 20)
			a, err := ralloc.Format(h)
			if err != nil {
				b.Fatal(err)
			}
			s, err := core.Create(a, core.Options{
				HashPower: 14, NumItemLocks: 1024, NumLRUs: numLRUs, FixedSize: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Force every set to traverse the LRU lock by making items
			// always fresh (bump threshold irrelevant for inserts).
			var seq int64
			b.RunParallel(func(pb *testing.PB) {
				mu := sync.Mutex{}
				mu.Lock()
				seq++
				id := seq
				mu.Unlock()
				ctx := s.NewCtx(uint64(id)*7 + 1)
				defer ctx.Close()
				key := make([]byte, 0, 20)
				val := make([]byte, 128)
				i := uint64(0)
				for pb.Next() {
					key = ycsb.KeyInto(key, i%4096)
					if err := ctx.Set(key, val, 0, 0); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// Ablation 2: scattered statistics vs the original single-lock design the
// paper replaced (§3.2).
func BenchmarkAblationStats(b *testing.B) {
	for _, locked := range []bool{true, false} {
		name := "scattered"
		if locked {
			name = "single-lock"
		}
		b.Run(name, func(b *testing.B) {
			h := shm.New(128 << 20)
			a, err := ralloc.Format(h)
			if err != nil {
				b.Fatal(err)
			}
			s, err := core.Create(a, core.Options{
				HashPower: 14, NumItemLocks: 1024, LockedStats: locked, FixedSize: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctxSetup := s.NewCtx(1)
			val := make([]byte, 128)
			key := make([]byte, 0, 20)
			for i := uint64(0); i < 4096; i++ {
				key = ycsb.KeyInto(key, i)
				if err := ctxSetup.Set(key, val, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			var seq int64
			var mu sync.Mutex
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				seq++
				id := seq
				mu.Unlock()
				ctx := s.NewCtx(uint64(id))
				defer ctx.Close()
				k := make([]byte, 0, 20)
				var buf []byte
				i := uint64(0)
				for pb.Next() {
					k = ycsb.KeyInto(k, i%4096)
					buf, _, _, _ = ctx.GetAppend(buf[:0], k)
					i++
				}
			})
		})
	}
}

// copyVal implements hodor.Copier for the trampoline auto-copy ablation.
type copyVal struct{ data []byte }

func (c copyVal) LibCopy() any {
	return copyVal{data: append([]byte(nil), c.data...)}
}

// Ablation 4: the trampoline argument auto-copy option (§2), which the
// paper leaves off in favour of manual copying of sensitive arguments.
func BenchmarkAblationTrampolineCopy(b *testing.B) {
	for _, autoCopy := range []bool{false, true} {
		name := "autocopy=off"
		if autoCopy {
			name = "autocopy=on"
		}
		b.Run(name, func(b *testing.B) {
			heap := shm.New(shm.PageSize)
			pt := pku.NewPageTable(heap)
			dom, _ := hodor.NewDomain(heap, pt)
			lib := hodor.NewLibrary("libcopy", 0, dom)
			lib.CopyArgs = autoCopy
			p, _ := proc.NewProcess(0, heap, 0x10000)
			res, _ := (hodor.Loader{}).Load(p, hodor.Binary{}, lib)
			s, _ := res.Attach(p.NewThread(), lib)
			fn := func(_ *proc.Thread, a copyVal) (int, error) { return len(a.data), nil }
			arg := copyVal{data: make([]byte, 128)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hodor.Call(s, fn, arg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 8 (ISSUE 6 tentpole): batched gate crossings. The 95/5
// read-mostly mix dispatched through Session.ExecBatch at growing batch
// sizes, against the one-crossing-per-op baseline (batch=1). Crossings are
// measured, not assumed, from the library's completed-crossing counter;
// the acceptance gate — crossings-per-op < 0.1 once batches reach 16 —
// fails the benchmark outright if batching ever regresses.
func BenchmarkAblationBatch(b *testing.B) {
	for _, batch := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			book, err := memcached.CreateStore(memcached.Config{
				HeapBytes: 256 << 20, HashPower: 14, FixedSize: true, NumItemLocks: 1024,
			})
			if err != nil {
				b.Fatal(err)
			}
			cp, err := book.NewClientProcess(1000)
			if err != nil {
				b.Fatal(err)
			}
			s, err := cp.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			const records = 4096
			val := make([]byte, 128)
			key := make([]byte, 0, 20)
			for i := uint64(0); i < records; i++ {
				key = ycsb.KeyInto(key, i)
				if err := s.Set(key, val, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			ops := make([]memcached.BatchOp, batch)
			// One key buffer per batch slot: the ops hold the slices until
			// the crossing dispatches them.
			keys := make([][]byte, batch)
			for j := range keys {
				keys[j] = make([]byte, 0, 20)
			}
			startCross := book.Library().Metrics().Crossings
			n := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					keys[j] = ycsb.KeyInto(keys[j][:0], uint64(n)%records)
					if n%20 == 19 {
						ops[j] = memcached.BatchOp{Code: memcached.BatchSet, Key: keys[j], Value: val}
					} else {
						ops[j] = memcached.BatchOp{Code: memcached.BatchGet, Key: keys[j]}
					}
					n++
				}
				if batch == 1 {
					// The unbatched baseline: one trampoline crossing per op.
					if ops[0].Code == memcached.BatchSet {
						err = s.Set(ops[0].Key, ops[0].Value, 0, 0)
					} else {
						_, _, err = s.Get(ops[0].Key)
					}
					if err != nil {
						b.Fatal(err)
					}
				} else if _, err := s.ExecBatch(ops); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			crossings := book.Library().Metrics().Crossings - startCross
			cpo := float64(crossings) / float64(n)
			b.ReportMetric(cpo, "crossings/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/key")
			if batch >= 16 && cpo >= 0.1 {
				b.Fatalf("crossings/op = %.4f at batch size %d, want < 0.1", cpo, batch)
			}
		})
	}
}

// Extension bench: batched MGet through one trampoline vs one trampoline
// per Get — the protected-library analog of the socket client's batching.
// The batched path must be at least 2x faster per key at 64 keys; slower
// means the batch dispatch has regressed into per-op crossings. The two
// sides run in alternating rounds, so a change in the machine's speed
// between them cancels in each round's ratio, and the gate is the median
// of those ratios.
func BenchmarkMGetAmortization(b *testing.B) {
	book, err := memcached.CreateStore(memcached.Config{HeapBytes: 64 << 20, HashPower: 12})
	if err != nil {
		b.Fatal(err)
	}
	cp, _ := book.NewClientProcess(1000)
	s, _ := cp.NewSession()
	defer s.Close()
	const batch, reps, rounds = 64, 8, 16 // per b.N: rounds × reps batches a side
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
		if err := s.Set(keys[i], []byte("value"), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	lone := func() {
		for _, k := range keys {
			if _, _, err := s.Get(k); err != nil {
				b.Fatal(err)
			}
		}
	}
	mget := func() {
		if res, err := s.MGet(keys); err != nil || len(res) != batch {
			b.Fatal(err)
		}
	}
	timed := func(fn func()) float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return float64(time.Since(t0).Nanoseconds()) / (reps * batch)
	}
	// The gate judges the longest run, the one with the most rounds.
	var speedup float64
	var n int
	b.Run("paired-rounds", func(b *testing.B) {
		var loneNS, mgetNS, ratios []float64
		for i := 0; i < b.N; i++ {
			for r := 0; r < rounds; r++ {
				var l, m float64
				if r%2 == 0 {
					l, m = timed(lone), timed(mget)
				} else {
					m, l = timed(mget), timed(lone)
				}
				loneNS, mgetNS, ratios = append(loneNS, l), append(mgetNS, m), append(ratios, l/m)
			}
		}
		speedup, n = median(ratios), len(ratios)
		b.ReportMetric(median(loneNS), "ns/key-get")
		b.ReportMetric(median(mgetNS), "ns/key-mget")
		b.ReportMetric(speedup, "speedup")
	})
	if speedup < 2 {
		b.Fatalf("batched MGet per-key speedup = %.2fx (median of %d paired rounds) at %d keys, want >= 2x", speedup, n, batch)
	}
}

// median returns the middle of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// Ablation 5: Ralloc's per-thread caches on vs off (a fresh cache per
// operation defeats caching and hits the global lists every time).
func BenchmarkAblationTcache(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "tcache=on"
		if !cached {
			name = "tcache=off"
		}
		b.Run(name, func(b *testing.B) {
			h := shm.New(128 << 20)
			a, err := ralloc.Format(h)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if cached {
				c := a.NewCache()
				for i := 0; i < b.N; i++ {
					off, err := c.Malloc(128)
					if err != nil {
						b.Fatal(err)
					}
					c.Free(off)
				}
			} else {
				for i := 0; i < b.N; i++ {
					c := a.NewCache()
					off, err := c.Malloc(128)
					if err != nil {
						b.Fatal(err)
					}
					c.Free(off)
					c.Flush()
				}
			}
		})
	}
}

// Ablation: latency recording on vs off on the 95/5 mix. The histograms
// are per-thread-slot in the heap — the scattered-statistics discipline —
// so "on" must cost only the sampling branch plus one in every
// LatencySampleEvery ops paying two clock reads and three uncontended
// heap adds; the budget is <=5% of throughput. A single shared histogram
// would instead serialize every op on one cache line.
func BenchmarkAblationMetrics(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "latency=off"
		if enabled {
			name = "latency=on"
		}
		b.Run(name, func(b *testing.B) {
			h := shm.New(256 << 20)
			a, err := ralloc.Format(h)
			if err != nil {
				b.Fatal(err)
			}
			s, err := core.Create(a, core.Options{
				HashPower: 14, NumItemLocks: 1024, FixedSize: true,
				DisableLatency: !enabled,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctxSetup := s.NewCtx(1)
			val := make([]byte, 128)
			key := make([]byte, 0, 20)
			for i := uint64(0); i < 4096; i++ {
				key = ycsb.KeyInto(key, i)
				if err := ctxSetup.Set(key, val, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			ctxSetup.Close()
			var seq int64
			var mu sync.Mutex
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				seq++
				id := seq
				mu.Unlock()
				ctx := s.NewCtx(uint64(id) * 31)
				defer ctx.Close()
				k := make([]byte, 0, 20)
				v := make([]byte, 128)
				var buf []byte
				i := uint64(id) * 2654435761
				for pb.Next() {
					k = ycsb.KeyInto(k, i%4096)
					if i%20 == 19 {
						if err := ctx.Set(k, v, 0, 0); err != nil {
							b.Error(err)
							return
						}
					} else {
						buf, _, _, _ = ctx.GetAppend(buf[:0], k)
					}
					i++
				}
			})
			if enabled {
				ls := s.Latency()
				b.ReportMetric(float64(ls.Classes[core.LatGet].Count()), "get-samples")
			}
		})
	}
}
