package mono

import (
	"testing"
	"time"
)

// Unix(Now()) must track time.Now().Unix() to the second and never run
// backwards, and a stamp far from the anchor must convert as exactly.
func TestUnixTracksWallClock(t *testing.T) {
	last := Unix(Now())
	for i := 0; i < 200_000; i++ {
		before := time.Now().Unix()
		now := Unix(Now())
		after := time.Now().Unix()
		if now < last {
			t.Fatalf("clock stepped backwards: %d after %d", now, last)
		}
		if now < before-1 || now > after+1 {
			t.Fatalf("clock reads %d, wall clock %d..%d", now, before, after)
		}
		last = now
	}
	far := time.Now().Add(90 * time.Minute)
	if got, want := Unix(At(far)), far.Unix(); got < want-1 || got > want+1 {
		t.Fatalf("a stamp 90 minutes on reads %d, want %d", got, want)
	}
}

func TestStampsAreNeverZeroAndOrdered(t *testing.T) {
	a := Now()
	b := Now()
	if a <= 0 || b < a {
		t.Fatalf("stamps %d then %d", a, b)
	}
	if at := At(time.Now()); at < b {
		t.Fatalf("At(now) = %d before an earlier Now() = %d", at, b)
	}
}

// TestHoldStartsAndStopsTheTicker: the first hold starts the one ticker,
// which republishes the word; the last release stops the goroutine and
// zeroes the word, and Coarse is a precise read again.
func TestHoldStartsAndStopsTheTicker(t *testing.T) {
	if word.Load() != 0 || quit != nil {
		t.Fatal("the clock ticks before any hold")
	}
	Hold()
	Hold()
	first := word.Load()
	if first == 0 || quit == nil {
		t.Fatalf("held twice: word %d, ticker running %v", first, quit != nil)
	}
	for deadline := time.Now().Add(5 * time.Second); word.Load() == first; time.Sleep(Period) {
		if time.Now().After(deadline) {
			t.Fatal("the word was never republished")
		}
	}
	if c, now := Coarse(), Now(); c > now || c < first {
		t.Fatalf("Coarse = %d: before the first publication %d or after Now %d", c, first, now)
	}
	Release()
	if quit == nil || word.Load() == 0 {
		t.Fatal("the ticker stopped while a hold remains")
	}
	stopped := done
	Release()
	select {
	case <-stopped:
	default:
		t.Fatal("the ticker goroutine outlived the last release")
	}
	if quit != nil || word.Load() != 0 {
		t.Fatalf("after the last release: word %d, ticker running %v", word.Load(), quit != nil)
	}
	if a, c, b := Now(), Coarse(), Now(); c < a || c > b {
		t.Fatalf("Coarse with no holder = %d, outside the precise reads %d..%d", c, a, b)
	}
}

// TestElapsedNeverEarly: on a stepped clock, a call stamped from the word
// may have begun as late as the present while its stamp is still the
// word, and as late as the next publication once it is not — so Elapsed
// counts from the stamp plus the gap, never from the stamp alone.
func TestElapsedNeverEarly(t *testing.T) {
	bound := widest.Load()
	resume := Still()
	t0 := Now()
	Publish(t0)
	stamp := Coarse()
	if stamp != t0 {
		t.Fatalf("Coarse = %d under a published %d", stamp, t0)
	}
	hour := int64(time.Hour)
	if e := Elapsed(stamp, t0+hour); e > hour || e < hour-int64(time.Minute) {
		t.Fatalf("stamp still current: Elapsed = %v, want the hour less the time since it", time.Duration(e))
	}
	const gap = int64(3 * time.Millisecond)
	Publish(t0 + gap)
	if e := Elapsed(stamp, t0+hour); e != hour-gap {
		t.Fatalf("after the next publication: Elapsed = %v, want %v", time.Duration(e), time.Duration(hour-gap))
	}
	Publish(t0 + 2*gap) // an equal gap leaves the bound alone
	if e := Elapsed(stamp, t0+hour); e != hour-gap {
		t.Fatalf("after an equal gap: Elapsed = %v, want %v", time.Duration(e), time.Duration(hour-gap))
	}
	resume()
	if word.Load() != 0 || widest.Load() != bound {
		t.Fatalf("resumed with no holder: word %d, gap bound %d, want 0 and the %d before", word.Load(), widest.Load(), bound)
	}
	if got := At(Time(t0)); got != t0 {
		t.Fatalf("At(Time(%d)) = %d", t0, got)
	}
}
