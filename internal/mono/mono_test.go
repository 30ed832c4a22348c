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
