package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

var epoch = time.Now()

// now is the monotonic clock every stamp in the benchmark reads, in ns.
func now() int64 { return int64(time.Since(epoch)) }

// Phase lengths as shares of a round, in the issue's proportion of 1.5 s
// latency to 2 s throughput.
const (
	latShare = 1.5 / 3.5
	thrShare = 2.0 / 3.5
)

// runner holds one workload's fixture and client streams across rounds.
type runner struct {
	sp      *spec
	f       *fixture
	streams []*stream
	reqs    [][]request // per client, one window
	lat     []int64
	buf     *sampleBufs
	setups  []float64

	rounds                 []map[string]float64 // measured rounds, in order
	total                  tally                // every op of every round, warm-up included
	getSamples, setSamples int                  // stamps in the last latency phase
}

// sampleBufs is the latency phase's stamp storage, one per op kind. Rounds
// run one at a time, so every runner shares one pair.
type sampleBufs struct{ get, set samples }

// newSampleBufs sizes the buffers past what the fastest workload stamps
// in one latency phase (~1.4 M ops/s for 0.21 s); should a phase outgrow
// them, append grows them at no cost to anything the client reports.
func newSampleBufs() *sampleBufs {
	return &sampleBufs{samples{make([]int64, 0, 1<<20)}, samples{make([]int64, 0, 1<<18)}}
}

// newRunner builds the workload's fixture setups times, timing each, and
// keeps the last one for the run.
func newRunner(sp *spec, seed uint64, clients, setups int, buf *sampleBufs) (*runner, error) {
	r := &runner{sp: sp, buf: buf}
	d := newData(seed)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		f, err := build(sp, d, clients)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if i < setups-1 {
			f.close()
		} else {
			r.f = f
		}
	}
	z := newZipf(sp.records, zipfTheta)
	for c := range clients {
		r.streams = append(r.streams, newStream(sp, z, seed, c))
		win := make([]request, sp.depth)
		for i := range win {
			win[i].idxs = make([]uint64, 0, max(sp.getKeys, sp.setKeys))
		}
		r.reqs = append(r.reqs, win)
	}
	r.lat = make([]int64, sp.depth)
	return r, nil
}

func (r *runner) close() { r.f.close() }

// window fills client c's next window of requests and returns its op count.
func (r *runner) window(c int) (reqs []request, ops uint64) {
	reqs = r.reqs[c]
	for i := range reqs {
		r.streams[c].next(&reqs[i])
		ops += uint64(len(reqs[i].idxs))
	}
	return reqs, ops
}

// latencyPhase drives client 0 alone for dur, stamping every request.
func (r *runner) latencyPhase(dur time.Duration, t *tally) {
	r.buf.get.reset()
	r.buf.set.reset()
	c := r.f.conns[0]
	for deadline, t1 := now()+int64(dur), int64(0); t1 < deadline; {
		reqs, _ := r.window(0)
		t1 = c.exec(reqs, r.lat)
		if t1 == 0 {
			t1 = now() // a broken window carries no stamp
		}
		failed := t.Failed
		c.check(reqs, t)
		if t.Failed != failed {
			continue // a failed op has no latency to report
		}
		for i := range reqs {
			if reqs[i].kind == opGet {
				r.buf.get.add(r.lat[i])
			} else {
				r.buf.set.add(r.lat[i])
			}
		}
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// throughputPhase drives every client for dur with no per-op timing and
// returns ops, wall seconds, process CPU seconds and heap allocations.
func (r *runner) throughputPhase(dur time.Duration, t *tally) (ops uint64, wall, cpu float64, mallocs uint64) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	n := len(r.f.conns)
	done := make([]uint64, n)
	tallies := make([]tally, n)
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			conn := r.f.conns[c]
			for !stop.Load() {
				reqs, k := r.window(c)
				conn.exec(reqs, nil)
				conn.check(reqs, &tallies[c])
				done[c] += k
			}
		}()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), now()
	close(start)
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	wall = float64(now()-t0) / 1e9
	cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	for c := range n {
		ops += done[c]
		t.add(tallies[c])
	}
	return ops, wall, cpu, m1.Mallocs - m0.Mallocs
}

// round runs one latency phase and one throughput phase of length
// roundDur in total and returns the round's metrics.
func (r *runner) round(roundDur time.Duration) map[string]float64 {
	var t tally
	runtime.GC()
	r.latencyPhase(time.Duration(float64(roundDur)*latShare), &t)
	get := r.buf.get.percentileUs(0.5, 0.9)
	set := r.buf.set.percentileUs(0.5, 0.9)
	r.getSamples, r.setSamples = len(r.buf.get.ns), len(r.buf.set.ns)
	runtime.GC()
	ops, wall, cpu, mallocs := r.throughputPhase(time.Duration(float64(roundDur)*thrShare), &t)
	r.total.add(t)
	return map[string]float64{
		"ops_per_s":     float64(ops) / wall,
		"get_p50_us":    get[0],
		"get_p90_us":    get[1],
		"set_p50_us":    set[0],
		"set_p90_us":    set[1],
		"cpu_us_per_op": cpu * 1e6 / float64(ops),
		"allocs_per_op": float64(mallocs) / float64(ops),
		"hit_ratio":     float64(t.Hits) / float64(t.Gets),
		"fail_ratio":    float64(t.Failed) / float64(t.Attempted),
	}
}

// summaries reduces the measured rounds to one summary per end-to-end
// metric; setup_s summarises the set-up repeats instead.
func (r *runner) summaries() map[string]summary {
	out := map[string]summary{}
	for _, m := range endToEnd {
		vals := r.setups
		if m.name != "setup_s" {
			vals = make([]float64, len(r.rounds))
			for i, rd := range r.rounds {
				vals[i] = rd[m.name]
			}
		}
		out[m.name] = summarize(vals, m.reduce)
	}
	return out
}

// runAll runs rounds+1 rounds of each runner, interleaved (w1 w2 … w1 w2
// …) so a noisy stretch on a shared box lands on one round of each
// workload; round 0 warms up and is discarded.
func runAll(rs []*runner, rounds int, roundDur time.Duration, progress func(string)) {
	for i := 0; i <= rounds; i++ {
		for _, r := range rs {
			m := r.round(roundDur)
			if i > 0 {
				r.rounds = append(r.rounds, m)
			}
			progress(fmt.Sprintf("%s round %d/%d: %.0f ops/s", r.sp.name, i, rounds, m["ops_per_s"]))
		}
	}
}
