// Package model is a sequential reference memcached: a single-key state
// machine over plain Go values (map semantics, CAS generations, absolute
// expiry, incr wrap / decr saturation) driven by a compact op/result
// record. The linearizability checker replays recorded concurrent
// histories against it: a history is correct iff every per-key
// subhistory has some linearization order under which this model
// reproduces every recorded result.
//
// CAS generations are handled symbolically. The real store mints opaque
// generation numbers the model cannot predict, so State.CAS holds the
// generation *as observed by the history*: 0 means "fresh, not yet
// observed by any gets" and a nonzero value means "some Gets in this
// linearization saw generation C here". A CAS op against an unobserved
// generation may still succeed if the history elsewhere establishes that
// generation C held this exact value (the CasVals pre-pass).
package model

import "strconv"

// Kind enumerates the operations the reference machine understands.
type Kind uint8

const (
	Get Kind = iota
	Set
	Add
	Replace
	CAS
	Delete
	Incr
	Decr
	Append
	Prepend
	Touch
	GAT   // get-and-touch: Get's checks plus Touch's expiry rewrite
	Flush // flush_all: drops every key; enters every key's subhistory
)

var kindNames = [...]string{
	"get", "set", "add", "replace", "cas", "delete", "incr", "decr",
	"append", "prepend", "touch", "gat", "flush",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Res is the normalized outcome of an operation, the union of every
// error a session-level call can report plus ResUnknown for calls whose
// effect is uncertain (the call was killed by a crash and recovered; it
// may or may not have applied).
type Res uint8

const (
	ResOK Res = iota
	ResNotFound
	ResExists      // Add on a live key
	ResCASMismatch // CAS generation didn't match
	ResNotNumeric  // incr/decr on a non-numeric value
	ResTooBig      // append/prepend past MaxValueLen
	ResNoSpace     // allocation failed even after eviction
	ResUnknown     // killed mid-call: effect may or may not have applied
)

var resNames = [...]string{
	"ok", "notfound", "exists", "casmismatch", "notnumeric", "toobig",
	"nospace", "unknown",
}

func (r Res) String() string {
	if int(r) < len(resNames) {
		return resNames[r]
	}
	return "?"
}

// Op is one recorded operation: invocation arguments, the observed
// result, and the invoke/return timestamps that define its concurrency
// window (A happens-before B iff A.Return < B.Invoke).
type Op struct {
	ID     int    // position in the merged history (diagnostics)
	Client int    // tape (worker) index
	Invoke uint64 // recorder clock at call
	Return uint64 // recorder clock at return; MaxUint64 if never returned

	Kind   Kind
	Key    string
	Val    []byte // payload for Set/Add/Replace/CAS/Append/Prepend
	Flags  uint32
	Exp    int64  // ABSOLUTE expiry argument (0 = never) for stores/Touch/GAT
	Delta  uint64 // incr/decr amount
	CASArg uint64
	Now    int64 // store clock when the op ran (frozen or stepped by driver)

	Res    Res
	RVal   []byte // Get/GAT/MGet value
	RFlags uint32
	RCAS   uint64 // Gets/MGet observed generation; 0 = not observed
	RNum   uint64 // incr/decr arithmetic result

	// Pending marks an op whose call never returned (the worker died
	// mid-call). A pending op may linearize anywhere after its invoke or
	// not at all.
	Pending bool
}

// State is the reference machine's per-key state.
type State struct {
	Present bool
	Val     string
	Flags   uint32
	Exp     int64  // absolute; 0 = never
	CAS     uint64 // observed generation; 0 = fresh/unbound
}

// Canon renders the state compactly for memoization keys.
func (s State) Canon() string {
	if !s.Present {
		return "-"
	}
	return s.Val + "\x00" + strconv.FormatUint(uint64(s.Flags), 36) +
		"\x00" + strconv.FormatInt(s.Exp, 36) +
		"\x00" + strconv.FormatUint(s.CAS, 36)
}

// Model carries the cross-key context a single-key step needs.
type Model struct {
	// MaxValueLen bounds append/prepend results; 0 means no bound (the
	// baseline store has no explicit value cap).
	MaxValueLen int
	// CasVals maps each CAS generation observed anywhere in the history
	// to the value it was observed with — the uniqueness pre-pass. A CAS
	// op whose target generation is unobserved in the current branch can
	// only have succeeded if the current value matches what that
	// generation is known to hold. nil disables the refinement (CAS on
	// an unbound state is then always allowed to succeed).
	CasVals map[uint64]string
	// CrashMayDrop admits the crash-recovery drop contract: a killed
	// chain-editing mutation (store/delete/arith/pend) may cost the key
	// entirely, because the structural repair pass frees items the
	// crashed op had half-linked or quarantined (RepairReport's
	// ItemsDropped). Enable when checking fault-injected histories;
	// leave off for crash-free runs, where a lost key is a real bug.
	CrashMayDrop bool
}

// numeric reports whether v parses as a uint64 under memcached's rules
// (1..20 digits, no sign, value < 2^64) and its value — mirroring the
// store's parseASCIIUint including the overflow rejection.
func numeric(v string) (uint64, bool) {
	if len(v) == 0 || len(v) > 20 {
		return 0, false
	}
	const cutoff = ^uint64(0) / 10
	var n uint64
	for i := 0; i < len(v); i++ {
		d := v[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n > cutoff || (n == cutoff && uint64(d) > ^uint64(0)%10) {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	return n, true
}

// reap applies lazy expiry: at op time now, an expired item is logically
// absent (the store reaps it on the next locked touch).
func reap(st State, now int64) State {
	if st.Present && st.Exp != 0 && st.Exp <= now {
		return State{}
	}
	return st
}

// casMatch reports whether a CAS op with argument c can have matched in
// state st (whose generation may be unobserved).
func (m *Model) casMatch(st State, c uint64) bool {
	if st.CAS != 0 {
		return st.CAS == c
	}
	if m.CasVals == nil {
		return true // no refinement available; be permissive
	}
	v, seen := m.CasVals[c]
	return seen && v == st.Val
}

// casCanMismatch reports whether a CAS op with argument c can have
// mismatched in state st.
func (m *Model) casCanMismatch(st State, c uint64) bool {
	if st.CAS != 0 {
		return st.CAS != c
	}
	// Unbound generation: the store's actual generation is unknown, so a
	// mismatch is always possible (generations are unique per store
	// event; an unobserved one is overwhelmingly likely ≠ c, and nothing
	// recorded pins it).
	return true
}

// stored is the post-state of a successful store of (val, flags, exp):
// a fresh, unobserved generation.
func stored(val []byte, flags uint32, exp int64) State {
	return State{Present: true, Val: string(val), Flags: flags, Exp: exp}
}

// Step advances st by op, returning every state the key can be in
// afterwards, or nil if op's recorded result is impossible from st.
// Deterministic completed ops yield exactly one successor; pending and
// unknown-result ops branch (applied / not applied).
func (m *Model) Step(st State, op *Op) []State {
	cur := reap(st, op.Now)
	if op.Res == ResUnknown || op.Pending {
		return m.stepUnknown(cur, op)
	}
	switch op.Kind {
	case Get:
		switch op.Res {
		case ResNotFound:
			if cur.Present {
				return nil
			}
			return []State{cur}
		case ResOK:
			return m.stepRead(cur, op, false)
		}
	case GAT:
		switch op.Res {
		case ResNotFound:
			if cur.Present {
				return nil
			}
			return []State{cur}
		case ResOK:
			return m.stepRead(cur, op, true)
		}
	case Set:
		switch op.Res {
		case ResOK:
			return []State{stored(op.Val, op.Flags, op.Exp)}
		case ResNoSpace:
			return []State{cur}
		}
	case Add:
		switch op.Res {
		case ResOK:
			if cur.Present {
				return nil
			}
			return []State{stored(op.Val, op.Flags, op.Exp)}
		case ResExists:
			if !cur.Present {
				return nil
			}
			return []State{cur}
		case ResNoSpace:
			return []State{cur} // alloc fails before the presence check
		}
	case Replace:
		switch op.Res {
		case ResOK:
			if !cur.Present {
				return nil
			}
			return []State{stored(op.Val, op.Flags, op.Exp)}
		case ResNotFound:
			if cur.Present {
				return nil
			}
			return []State{cur}
		case ResNoSpace:
			return []State{cur}
		}
	case CAS:
		switch op.Res {
		case ResOK:
			if !cur.Present || !m.casMatch(cur, op.CASArg) {
				return nil
			}
			return []State{stored(op.Val, op.Flags, op.Exp)}
		case ResCASMismatch:
			if !cur.Present || !m.casCanMismatch(cur, op.CASArg) {
				return nil
			}
			return []State{cur}
		case ResNotFound:
			if cur.Present {
				return nil
			}
			return []State{cur}
		case ResNoSpace:
			return []State{cur}
		}
	case Delete:
		switch op.Res {
		case ResOK:
			if !cur.Present {
				return nil
			}
			return []State{{}}
		case ResNotFound:
			if cur.Present {
				return nil
			}
			return []State{cur}
		}
	case Incr, Decr:
		switch op.Res {
		case ResNotFound:
			if cur.Present {
				return nil
			}
			return []State{cur}
		case ResNotNumeric:
			if !cur.Present {
				return nil
			}
			if _, ok := numeric(cur.Val); ok {
				return nil
			}
			return []State{cur}
		case ResOK:
			next, ok := m.arith(cur, op)
			if !ok || next == nil {
				return nil
			}
			return []State{*next}
		case ResNoSpace:
			// Width-change reallocation failed; the old item is intact.
			if !cur.Present {
				return nil
			}
			if _, ok := numeric(cur.Val); !ok {
				return nil
			}
			return []State{cur}
		}
	case Append, Prepend:
		switch op.Res {
		case ResNotFound:
			if cur.Present {
				return nil
			}
			return []State{cur}
		case ResTooBig:
			if !cur.Present || m.MaxValueLen == 0 ||
				len(cur.Val)+len(op.Val) <= m.MaxValueLen {
				return nil
			}
			return []State{cur}
		case ResOK:
			next := m.pend(cur, op)
			if next == nil {
				return nil
			}
			return []State{*next}
		case ResNoSpace:
			if !cur.Present {
				return nil
			}
			return []State{cur}
		}
	case Touch:
		switch op.Res {
		case ResOK:
			if !cur.Present {
				return nil
			}
			next := cur
			next.Exp = op.Exp
			return []State{next}
		case ResNotFound:
			if cur.Present {
				return nil
			}
			return []State{cur}
		}
	case Flush:
		if op.Res == ResOK {
			return []State{{}}
		}
	}
	return nil
}

// stepRead validates a successful Get/GAT against cur and returns the
// post-state: value/flags must match, the observed generation must be
// consistent, and GAT rewrites the expiry.
func (m *Model) stepRead(cur State, op *Op, touch bool) []State {
	if !cur.Present || cur.Val != string(op.RVal) || cur.Flags != op.RFlags {
		return nil
	}
	next := cur
	if op.RCAS != 0 {
		switch cur.CAS {
		case 0:
			next.CAS = op.RCAS // bind the fresh generation to the observation
		case op.RCAS:
		default:
			return nil // two different generations observed with no write between
		}
	}
	if touch {
		next.Exp = op.Exp
	}
	return []State{next}
}

// arith computes the incr/decr successor. Returns (nil, true) when the
// recorded RNum contradicts the model value.
func (m *Model) arith(cur State, op *Op) (*State, bool) {
	if !cur.Present {
		return nil, false
	}
	v, ok := numeric(cur.Val)
	if !ok {
		return nil, false
	}
	if op.Kind == Decr {
		if op.Delta > v {
			v = 0 // decr saturates at zero
		} else {
			v -= op.Delta
		}
	} else {
		v += op.Delta // incr wraps at 2^64
	}
	if op.Res == ResOK && op.RNum != v {
		return nil, true
	}
	next := cur
	next.Val = strconv.FormatUint(v, 10)
	next.CAS = 0 // rewrite mints a fresh generation
	return &next, true
}

// pend computes the append/prepend successor, or nil if impossible.
func (m *Model) pend(cur State, op *Op) *State {
	if !cur.Present {
		return nil
	}
	if m.MaxValueLen != 0 && len(cur.Val)+len(op.Val) > m.MaxValueLen {
		return nil
	}
	next := cur
	if op.Kind == Append {
		next.Val = cur.Val + string(op.Val)
	} else {
		next.Val = string(op.Val) + cur.Val
	}
	next.CAS = 0
	return &next
}

// stepUnknown branches a killed/pending op: it may have had no effect,
// or any effect its success path could have produced. The no-effect
// branch always exists, so such ops can always linearize.
func (m *Model) stepUnknown(cur State, op *Op) []State {
	out := []State{cur}
	add := func(s State) {
		for _, have := range out {
			if have == s {
				return
			}
		}
		out = append(out, s)
	}
	drop := func() {
		if m.CrashMayDrop {
			add(State{})
		}
	}
	switch op.Kind {
	case Get, GAT:
		if op.Kind == GAT && cur.Present {
			t := cur
			t.Exp = op.Exp
			add(t)
		}
	case Set:
		add(stored(op.Val, op.Flags, op.Exp))
		drop()
	case Add:
		if !cur.Present {
			add(stored(op.Val, op.Flags, op.Exp))
		}
		drop()
	case Replace:
		if cur.Present {
			add(stored(op.Val, op.Flags, op.Exp))
		}
		drop()
	case CAS:
		if cur.Present && m.casMatch(cur, op.CASArg) {
			add(stored(op.Val, op.Flags, op.Exp))
		}
		drop()
	case Delete:
		if cur.Present {
			add(State{})
		}
	case Incr, Decr:
		if next, _ := m.arith(cur, &Op{Kind: op.Kind, Delta: op.Delta, Res: ResUnknown}); next != nil {
			add(*next)
		}
		drop()
	case Append, Prepend:
		if next := m.pend(cur, op); next != nil {
			add(*next)
		}
		drop()
	case Touch:
		if cur.Present {
			t := cur
			t.Exp = op.Exp
			add(t)
		}
	case Flush:
		add(State{})
	}
	return out
}
