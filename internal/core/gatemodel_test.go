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
// Every reachable state must satisfy three invariants:
//
//   - no live operation is in flight while the store is quiesced;
//   - between Quiesce returning and Unquiesce, InFlightOps reads zero: no
//     counted entry exists, not even one that is about to withdraw;
//   - every live operation in flight is still counted: a slot entry's op
//     word holds its token, and the gate word counts at least the live
//     counted entries of its generation — nothing lost, nothing eaten.
//
// Dead contexts are outside all three: the liveness oracle reports an owner
// dead only once it may no longer touch the heap, and repair clears their
// counts. The seeded variants reproduce plausible mistakes, and the
// enumerator must name each one with its shortest schedule. (With the
// fences, checking the barrier before publishing is no mistake: an entrant
// that publishes late meets a fence.)

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

// gmFence is opFence, the op word Quiesce leaves in a drained slot.
const gmFence int8 = 3

// Quiescer program counters: raise the barrier, read the gate word's count
// and then fence each slot's op word (a token restarts the scan), hold,
// then lift each fence and drop the barrier. Giving up mid-scan lifts the
// fences too.
const (
	gmQIdle    int8 = iota
	gmQScan         // + i: reading word i of the scan
	gmQHeld    = gmQScan + 1 + gmSlots
	gmQRelease = gmQHeld + 1          // + i: lifting slot i's fence
	gmQDrop    = gmQRelease + gmSlots // dropping the barrier
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
	owner, op  [gmSlots]int8 // per reader slot: owner token, op word (token = context index + 1, or gmFence)
	ctx        [2]gmCtx
	q, qLeft   int8 // quiescer pc, quiesce attempts left
	r, rLeft   int8 // repairer pc, repairs left
	recovering bool // live calls are parked
}

// gmBugs seeds the variants the enumerator must reject.
type gmBugs struct {
	blindExit  bool // exitOp stores 0 to its op word instead of CASing from its token
	blindEnter bool // enterOp stores its token instead of CASing from 0
	phantom    bool // Quiesce fences no op word, so a late entrant's token shows until it withdraws
}

func (b gmBugs) next(s gmState, emit func(gmState)) {
	for i := range s.ctx {
		b.ctxSteps(s, i, emit)
	}
	b.quiescerSteps(s, emit)
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
		tc.pc = gmPublish
		if c.slot == gmNone {
			tc.pc = gmCounted
		}
	case gmPublish:
		if s.op[c.slot] != 0 && !b.blindEnter {
			tc.pc = gmCounted // a stale token or a fence holds the word: count in the gate word
			break
		}
		t.op[c.slot] = tok
		tc.pc = gmCheck
	case gmCheck:
		tc.pc, tc.word = gmInOp, c.slot
		if s.barrier {
			tc.pc, tc.word = gmWithdraw, gmNone
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

func (b gmBugs) quiescerSteps(s gmState, emit func(gmState)) {
	t := s
	switch {
	case s.q == gmQIdle:
		// Checkpoint and repair exclude each other (repairMu).
		if s.qLeft == 0 || s.recovering || s.r != gmRIdle || s.barrier {
			return
		}
		t.barrier, t.q = true, gmQScan
	case s.q == gmQHeld:
		t.q = gmQRelease
	case s.q >= gmQRelease && s.q < gmQDrop:
		if i := s.q - gmQRelease; s.op[i] == gmFence {
			t.op[i] = 0
		}
		t.q++
	case s.q == gmQDrop:
		t.barrier, t.q, t.qLeft = false, gmQIdle, s.qLeft-1
	default:
		a := t
		a.q = gmQRelease // QuiesceWithAbort gives up: Unquiesce
		emit(a)
		t.q++
		if i := s.q - gmQScan - 1; i < 0 {
			if s.count != 0 {
				t.q = gmQScan
			}
		} else if w := s.op[i]; w == 0 && !b.phantom {
			t.op[i] = gmFence
		} else if w != 0 && w != gmFence {
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
	if s.q == gmQHeld {
		n := s.count
		for _, w := range s.op {
			if w != 0 && w != gmFence {
				n++
			}
		}
		if n != 0 {
			return fmt.Sprintf("InFlightOps reads %d while the store is quiesced", n)
		}
	}
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

// key packs s into 58 bits for the visited set: each field, plus one so
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
		put(s.op[j], 3)
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
	put(s.q, 4)
	put(s.qLeft, 2)
	put(s.r, 3)
	put(s.rLeft, 2)
	put(flag(s.recovering), 1)
	return k
}

// gmExplore visits every state reachable within depth steps and returns
// the number visited and the first violation found, with the shortest
// schedule that reaches it (the search is breadth first) and the state
// that breaks it.
func gmExplore(bugs gmBugs, depth int) (int, string) {
	parent := map[uint64]uint64{} // visited state → the state it was first reached from
	var frontier []gmState
	for _, s := range gmInitial() {
		parent[s.key()] = s.key()
		frontier = append(frontier, s)
	}
	for d := 0; d <= depth && len(frontier) > 0; d++ {
		var next []gmState
		for _, s := range frontier {
			if v := s.violation(); v != "" {
				return len(parent), fmt.Sprintf("%s at depth %d after %s in %+v", v, d, gmWitness(bugs, parent, s), s)
			}
			if d == depth {
				continue
			}
			k := s.key()
			bugs.next(s, func(t gmState) {
				tk := t.key()
				if _, ok := parent[tk]; !ok {
					parent[tk] = k
					next = append(next, t)
				}
			})
		}
		frontier = next
	}
	return len(parent), ""
}

// gmWitness replays the parent chain that ends at s from its initial state
// and names each step.
func gmWitness(bugs gmBugs, parent map[uint64]uint64, s gmState) string {
	var keys []uint64
	for k := s.key(); ; k = parent[k] {
		keys = append([]uint64{k}, keys...)
		if parent[k] == k {
			break
		}
	}
	var cur gmState
	for _, init := range gmInitial() {
		if init.key() == keys[0] {
			cur = init
		}
	}
	var steps []string
	for _, k := range keys[1:] {
		var nxt gmState
		bugs.next(cur, func(t gmState) {
			if t.key() == k {
				nxt = t
			}
		})
		steps = append(steps, gmStep(cur, nxt))
		cur = nxt
	}
	return strings.Join(steps, "; ")
}

var gmPCNames = [...]string{"idle", "publish", "check", "withdraw", "counted", "in-op", "exit"}

// gmStep names the transition from a to b.
func gmStep(a, b gmState) string {
	for i := range a.ctx {
		x, y := a.ctx[i], b.ctx[i]
		switch {
		case y.frozen && !x.frozen:
			return fmt.Sprintf("ctx%d crashes", i)
		case y.dead && !x.dead:
			return fmt.Sprintf("ctx%d is reaped", i)
		case y.slot != x.slot:
			return fmt.Sprintf("ctx%d claims slot %d", i, y.slot)
		case y.pc != x.pc || y.ops != x.ops:
			return fmt.Sprintf("ctx%d %s→%s", i, gmPCNames[x.pc], gmPCNames[y.pc])
		}
	}
	switch {
	case a.q == gmQIdle && b.q != gmQIdle:
		return "quiescer raises the barrier"
	case a.q == gmQHeld:
		return "quiescer unquiesces"
	case a.q == gmQDrop:
		return "quiescer drops the barrier"
	case a.q > gmQHeld:
		return fmt.Sprintf("quiescer lifts slot %d's fence", a.q-gmQRelease)
	case b.q == gmQRelease:
		return "quiescer gives up"
	case a.q == gmQScan:
		return "quiescer reads the gate count"
	case a.q != gmQIdle:
		return fmt.Sprintf("quiescer reads slot %d", a.q-gmQScan-1)
	case a.r != b.r:
		return fmt.Sprintf("repairer %s", gmRNames[a.r])
	}
	return fmt.Sprintf("reaper expires a slot (owners %v)", b.owner)
}

var gmRNames = [...]string{"drains", "retires dead readers", "clears the gate word", "clears slot 0", "clears slot 1", "resumes"}

// gmDepth is two steps past the longest witness below: the blind exit needs
// 16 — enter, reap, the repair's six steps, a reclaim, a live entry, and
// the zombie's exit. About 650 000 states lie within it.
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
		{"publish as a blind store", gmBugs{blindEnter: true}, "while the store is quiesced"},
		// Without the fences, InFlightOps counts an entry that published
		// its token after the scan passed its slot and will withdraw.
		{"phantom entry counted", gmBugs{phantom: true}, "InFlightOps reads 1"},
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
