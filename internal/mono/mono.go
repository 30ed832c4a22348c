// Package mono is the process's one monotonic clock, read two ways: Now,
// one precise read, and Coarse, memcached's current_time — one word that a
// single ticker republishes every Period while a store holds it, so that a
// gated call tells time with one atomic load (DESIGN.md §12 "Who reads the
// clock").
package mono

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

var (
	start = time.Now()
	wall  = start.UnixNano()
)

// Now is one monotonic read where time.Now makes two, and never 0: holders
// keep 0 for "no stamp".
func Now() int64 { return int64(time.Since(start)) + 1 }

// At places an injected time on the same scale.
func At(t time.Time) int64 { return int64(t.Sub(start)) + 1 }

// Time is At's inverse: At(Time(stamp)) == stamp.
func Time(stamp int64) time.Time { return start.Add(time.Duration(stamp - 1)) }

// Unix is a stamp as unix seconds: the anchor's wall clock plus monotonic
// time since (memcached's current_time), so deaf to a stepped wall clock.
func Unix(stamp int64) int64 { return (wall + stamp) / int64(time.Second) }

// Period is how often the ticker republishes the coarse clock.
const Period = time.Millisecond

var (
	// word is Now() as of the last publication, 0 while nobody publishes.
	word atomic.Int64
	// widest is the widest gap a Coarse reading can lag the time it was
	// taken at: between two publications, or from the last one to the
	// word's zeroing. seq is odd while a publication moves word and widest
	// (a seqlock for Elapsed; readers of the word never look at it).
	widest, seq atomic.Int64

	mu         sync.Mutex
	holders    int
	still      bool // a test publishes instead of the ticker (Still)
	quit, done chan struct{}
)

// Coarse returns the published word, or a precise read when no store holds
// the clock; never 0.
func Coarse() int64 {
	if t := word.Load(); t != 0 {
		return t
	}
	return Now()
}

// Elapsed is how long a call stamped start by Coarse has surely run at
// now, so a watchdog judging by it is never early. The call began before
// the publication after start, at most the widest gap later — or, while
// start is still the word, as late as the present.
func Elapsed(start, now int64) int64 {
	for {
		s := seq.Load()
		w, g := word.Load(), widest.Load()
		if s&1 != 0 || seq.Load() != s {
			runtime.Gosched()
			continue
		}
		if w != 0 && start >= w {
			return now - Now()
		}
		return now - start - g
	}
}

// publish stores t (0 = stop publishing) and widens the gap bound by the
// time since the value it replaces, measured after the swap, since every
// reader of that value took it before — or, stepped, by t less that value.
func publish(t int64, stepped bool) {
	seq.Add(1)
	if old := word.Swap(t); old != 0 {
		gap := Now() - old
		if stepped {
			gap = t - old
		}
		widest.Store(max(widest.Load(), gap))
	}
	seq.Add(1)
}

// Hold makes the coarse clock tick: the first holder starts the ticker.
// Every store takes one hold while it is open.
func Hold() {
	mu.Lock()
	defer mu.Unlock()
	if holders++; holders == 1 && !still {
		startTicker()
	}
}

// Release drops a hold; at the last, the ticker stops and Coarse falls back
// to Now.
func Release() {
	mu.Lock()
	defer mu.Unlock()
	if holders == 0 {
		panic("mono: Release without Hold")
	}
	if holders--; holders == 0 && !still {
		stopTicker()
	}
}

func startTicker() {
	publish(Now(), false)
	quit, done = make(chan struct{}), make(chan struct{})
	go func(quit, done chan struct{}) {
		defer close(done)
		tk := time.NewTicker(Period)
		defer tk.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tk.C:
				publish(Now(), false)
			}
		}
	}(quit, done)
}

func stopTicker() {
	close(quit)
	<-done
	quit, done = nil, nil
	publish(0, false)
}

// Still is a test hook: it stops the ticker, and until resume runs the word
// and the gap bound move only by Publish — the bound starts at 0 and
// widens by the difference between successive published values. resume
// restores the bound and the ticker (or the zero word) as they were.
func Still() (resume func()) {
	mu.Lock()
	defer mu.Unlock()
	if quit != nil {
		stopTicker()
	}
	still = true
	saved := widest.Swap(0)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		still = false
		word.Store(0)
		widest.Store(saved)
		if holders > 0 {
			startTicker()
		}
	}
}

// Publish sets the word to t (> 0) as a tick would; only under Still.
func Publish(t int64) {
	mu.Lock()
	defer mu.Unlock()
	if !still {
		panic("mono: Publish without Still")
	}
	publish(t, true)
}
