package core

import (
	"fmt"
	"strings"
	"testing"
)

// The operation gate as a step-function model, explored exhaustively.
//
// gate.go's protocol — enterOp, exitOp, QuiesceWithAbort and the repair
// pass that runs RetireDeadReaders and RepairGate — is argued in prose;
// here each of its atomic steps is one transition of a small state
// machine, and a breadth-first enumerator runs every interleaving of two
// contexts, a quiescer and a repairer to a depth bound. Either context may
// crash (it never runs again) or be reaped (declared dead while it runs on
// as a zombie) at any step, and a live idle context may move to a free
// reader slot — which is how a slot retired from a zombie gets reclaimed.
// Every reachable state must satisfy two invariants:
//
//   - no live operation is in flight while the store is quiesced;
//   - every live operation in flight is still counted: a slot entry's op
//     word holds its token, and the gate word counts at least the live
//     counted entries of its generation — nothing lost, nothing eaten.
//
// Dead contexts are outside both: the liveness oracle reports an owner dead
// only once it may no longer touch the heap, and repair clears their counts.
// The seeded variants reproduce plausible mistakes, and the enumerator must
// name each one.

const (
	gmSlots = 2
	gmNone  = -1 // no slot / counted in the gate word
)

// Context program counters.
const (
	gmIdle     int8 = iota
	gmPublish       // enterOp: CAS the slot's op word 0 → token
	gmCheck         // enterOp: load the barrier
	gmWithdraw      // enterOp met the barrier: CAS the op word token → 0
	gmCounted       // enterOp: the gate word's CAS loop; blocks while the barrier is up
	gmInOp          // the operation itself
	gmExit          // exitOp
)

// Quiescer program counters: raise the barrier, read the gate word's count
// and then each slot's op word (any nonzero restarts the scan), hold.
const (
	gmQIdle int8 = iota
	gmQScan      // + i: reading word i of the scan
	gmQHeld = gmQScan + 1 + gmSlots
)

// Repairer program counters, in memcached.repairStore's order once live
// calls have drained.
const (
	gmRIdle   int8 = iota
	gmRRetire      // RetireDeadReaders
	gmRGate        // RepairGate: the gate word
	gmRSlot        // + i: RepairGate clears slot i's op word
	gmRDone   = gmRSlot + gmSlots
)

type gmCtx struct {
	pc, slot, word, gen int8
	ops, claims         int8 // operations and slot moves left
	dead, frozen        bool // dead: crashed or reaped; frozen: crashed, takes no step
}

type gmState struct {
	barrier    bool
	gen, count int8
	owner, op  [gmSlots]int8 // per reader slot: owner token, op word (token = context index + 1)
	ctx        [2]gmCtx
	q, qLeft   int8 // quiescer pc, quiesce attempts left
	r, rLeft   int8 // repairer pc, repairs left
	recovering bool // live calls are parked
}

// gmBugs seeds the variants the enumerator must reject.
type gmBugs struct {
	blindExit  bool // exitOp stores 0 to its op word instead of CASing from its token
	checkFirst bool // enterOp checks the barrier before it publishes its token
	blindEnter bool // enterOp stores its token instead of CASing from 0
}

func (b gmBugs) next(s gmState, emit func(gmState)) {
	for i := range s.ctx {
		b.ctxSteps(s, i, emit)
	}
	quiescerSteps(s, emit)
	repairerSteps(s, emit)
	// A grave reaper may expire a dead owner's slot at any time
	// (expireIfDead), not only inside a repair.
	for j, o := range s.owner {
		if o != 0 && s.ctx[o-1].dead {
			t := s
			t.owner[j] = 0
			emit(t)
		}
	}
}

func (b gmBugs) ctxSteps(s gmState, i int, emit func(gmState)) {
	c, tok := s.ctx[i], int8(i+1)
	if c.frozen {
		return
	}
	if !c.dead {
		t := s
		t.ctx[i].dead, t.ctx[i].frozen = true, true // crash
		emit(t)
		if c.pc != gmIdle {
			t = s
			t.ctx[i].dead = true // reaped mid-call: runs on as a zombie
			emit(t)
		}
		if c.pc == gmIdle && !s.recovering && c.claims > 0 {
			for j := range s.owner {
				if s.owner[j] != 0 {
					continue
				}
				t = s
				if c.slot != gmNone {
					t.owner[c.slot] = 0
				}
				t.owner[j], t.ctx[i].slot = tok, int8(j)
				t.ctx[i].claims--
				emit(t)
			}
		}
	}
	t := s
	tc := &t.ctx[i]
	switch c.pc {
	case gmIdle:
		if c.ops == 0 || !c.dead && s.recovering {
			return
		}
		tc.ops--
		switch {
		case c.slot == gmNone:
			tc.pc = gmCounted
		case b.checkFirst:
			tc.pc = gmCheck
		default:
			tc.pc = gmPublish
		}
	case gmPublish:
		if s.op[c.slot] != 0 && !b.blindEnter {
			tc.pc = gmCounted // a stale token holds the word: count in the gate word
			break
		}
		t.op[c.slot] = tok
		tc.pc = gmCheck
		if b.checkFirst {
			tc.pc, tc.word = gmInOp, c.slot
		}
	case gmCheck:
		switch {
		case b.checkFirst && s.barrier:
			tc.pc = gmCounted
		case b.checkFirst:
			tc.pc = gmPublish
		case s.barrier:
			tc.pc = gmWithdraw
		default:
			tc.pc, tc.word = gmInOp, c.slot
		}
	case gmWithdraw:
		if s.op[c.slot] == tok {
			t.op[c.slot] = 0
		}
		tc.pc = gmCounted
	case gmCounted:
		if s.barrier {
			return
		}
		t.count++
		tc.pc, tc.word, tc.gen = gmInOp, gmNone, s.gen
	case gmInOp:
		tc.pc = gmExit
	case gmExit:
		switch {
		case c.word == gmNone:
			if c.gen == s.gen && s.count > 0 {
				t.count--
			}
		case b.blindExit || s.op[c.word] == tok:
			t.op[c.word] = 0
		}
		tc.pc = gmIdle
	}
	emit(t)
}

func quiescerSteps(s gmState, emit func(gmState)) {
	t := s
	switch {
	case s.q == gmQIdle:
		// Checkpoint and repair exclude each other (repairMu).
		if s.qLeft == 0 || s.recovering || s.r != gmRIdle || s.barrier {
			return
		}
		t.barrier, t.q = true, gmQScan
	case s.q == gmQHeld:
		t.barrier, t.q, t.qLeft = false, gmQIdle, s.qLeft-1
	default:
		a := t
		a.barrier, a.q, a.qLeft = false, gmQIdle, s.qLeft-1 // QuiesceWithAbort gives up
		emit(a)
		w := s.count
		if i := s.q - gmQScan; i > 0 {
			w = s.op[i-1]
		}
		t.q++
		if w != 0 {
			t.q = gmQScan
		}
	}
	emit(t)
}

func repairerSteps(s gmState, emit func(gmState)) {
	t := s
	switch {
	case s.r == gmRIdle:
		if s.rLeft == 0 || s.q != gmQIdle {
			return
		}
		dead := false
		for _, c := range s.ctx {
			if c.dead {
				dead = true
			} else if c.pc != gmIdle {
				return // the drain waits for live calls
			}
		}
		if !dead {
			return
		}
		t.recovering, t.r = true, gmRRetire
	case s.r == gmRRetire:
		for j, o := range s.owner {
			if o != 0 && s.ctx[o-1].dead {
				t.owner[j] = 0
			}
		}
		t.r = gmRGate
	case s.r == gmRGate:
		t.barrier, t.gen, t.count, t.r = false, s.gen+1, 0, gmRSlot
	case s.r < gmRDone:
		t.op[s.r-gmRSlot] = 0
		t.r++
	default:
		t.recovering, t.r, t.rLeft = false, gmRIdle, s.rLeft-1
	}
	emit(t)
}

// violation names the invariant s breaks, or returns "".
func (s gmState) violation() string {
	var counted int8
	for i, c := range s.ctx {
		if c.dead || c.pc != gmInOp {
			continue
		}
		switch {
		case s.q == gmQHeld:
			return fmt.Sprintf("context %d is in flight while the store is quiesced", i)
		case c.word != gmNone && s.op[c.word] != int8(i+1):
			return fmt.Sprintf("context %d's count in slot %d is gone", i, c.word)
		case c.word == gmNone && c.gen != s.gen:
			return fmt.Sprintf("context %d's count went with generation %d", i, c.gen)
		case c.word == gmNone:
			counted++
		}
	}
	if s.count < counted {
		return fmt.Sprintf("gate word counts %d of %d live operations", s.count, counted)
	}
	return ""
}

// gmInitial is every starting layout: two slot holders, a slot holder and
// an overflow context, and two overflow contexts that may still claim.
func gmInitial() []gmState {
	ctx := func(slot int8) gmCtx { return gmCtx{pc: gmIdle, slot: slot, word: gmNone, ops: 2, claims: 1} }
	var out []gmState
	for _, slots := range [][2]int8{{0, 1}, {0, gmNone}, {gmNone, gmNone}} {
		s := gmState{qLeft: 2, rLeft: 1}
		for i, sl := range slots {
			s.ctx[i] = ctx(sl)
			if sl != gmNone {
				s.owner[sl] = int8(i + 1)
			}
		}
		out = append(out, s)
	}
	return out
}

// key packs s into 55 bits for the visited set: each field, plus one so
// gmNone packs as zero, in a width that fits every value it takes.
func (s gmState) key() uint64 {
	var k uint64
	put := func(v int8, bits uint) {
		if uint64(v+1) >= 1<<bits {
			panic(fmt.Sprintf("gate model: %d does not fit %d bits", v, bits))
		}
		k = k<<bits | uint64(v+1)
	}
	flag := func(b bool) int8 {
		if b {
			return 0
		}
		return -1
	}
	put(flag(s.barrier), 1)
	put(s.gen, 2)
	put(s.count, 3)
	for j := range s.owner {
		put(s.owner[j], 2)
		put(s.op[j], 2)
	}
	for _, c := range s.ctx {
		put(c.pc, 3)
		put(c.slot, 2)
		put(c.word, 2)
		put(c.gen, 2)
		put(c.ops, 2)
		put(c.claims, 2)
		put(flag(c.dead), 1)
		put(flag(c.frozen), 1)
	}
	put(s.q, 3)
	put(s.qLeft, 2)
	put(s.r, 3)
	put(s.rLeft, 2)
	put(flag(s.recovering), 1)
	return k
}

// gmExplore visits every state reachable within depth steps and returns
// the number visited and the first violation found, with the state that
// breaks it.
func gmExplore(bugs gmBugs, depth int) (int, string) {
	seen := map[uint64]bool{}
	var frontier []gmState
	for _, s := range gmInitial() {
		seen[s.key()] = true
		frontier = append(frontier, s)
	}
	for d := 0; d <= depth && len(frontier) > 0; d++ {
		var next []gmState
		for _, s := range frontier {
			if v := s.violation(); v != "" {
				return len(seen), fmt.Sprintf("%s at depth %d in %+v", v, d, s)
			}
			if d == depth {
				continue
			}
			bugs.next(s, func(t gmState) {
				if k := t.key(); !seen[k] {
					seen[k] = true
					next = append(next, t)
				}
			})
		}
		frontier = next
	}
	return len(seen), ""
}

// gmDepth is two steps past the longest witness below: the blind exit needs
// 16 — enter, reap, the repair's six steps, a reclaim, a live entry, and
// the zombie's exit. About 670 000 states lie within it.
const gmDepth = 18

func TestGateModelExhaustive(t *testing.T) {
	n, v := gmExplore(gmBugs{}, gmDepth)
	if v != "" {
		t.Fatalf("the gate protocol breaks an invariant:\n%s", v)
	}
	t.Logf("%d states to depth %d", n, gmDepth)
}

func TestGateModelFindsSeededBugs(t *testing.T) {
	for _, tc := range []struct {
		name string
		bugs gmBugs
		want string
	}{
		{"exitOp as a blind store", gmBugs{blindExit: true}, "count in slot"},
		{"barrier check before publish", gmBugs{checkFirst: true}, "quiesced"},
		{"publish as a blind store", gmBugs{blindEnter: true}, "count in slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, v := gmExplore(tc.bugs, gmDepth)
			if !strings.Contains(v, tc.want) {
				t.Fatalf("enumerator did not find the seeded bug (want %q), got %q", tc.want, v)
			}
			t.Log(v)
		})
	}
}
