package linearcheck

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"plibmc/internal/model"
)

// Options tunes a Check run.
type Options struct {
	// MaxStates bounds the per-key search (counted in model steps);
	// exceeding it marks the key undecided rather than running forever.
	// 0 means the default budget.
	MaxStates int64
	// NoShrink skips witness minimization on violation.
	NoShrink bool
}

const defaultMaxStates = 4 << 20

// Result is the outcome of checking one history.
type Result struct {
	Ok        bool
	Violation string     // human-readable reason when !Ok
	Key       string     // the violating key
	Witness   []model.Op // minimal violating subhistory (shrunk)
	Undecided []string   // keys whose search exceeded the budget

	Ops            int   // total ops checked
	Keys           int   // distinct keys (linearization domains)
	MaxKeyOps      int   // largest per-key subhistory
	StatesExplored int64 // total model steps across all keys
}

type verdict int8

const (
	vOK verdict = iota
	vViolation
	vUndecided
)

// Check verifies that history is linearizable with respect to m. If
// m.CasVals is nil it is built here from the history's observed CAS
// generations (and generation/value uniqueness is verified while doing
// so — two reads observing one generation with different contents is
// already a violation, no search needed).
func Check(history []model.Op, m *model.Model, opts Options) Result {
	budget := opts.MaxStates
	if budget <= 0 {
		budget = defaultMaxStates
	}
	res := Result{Ok: true, Ops: len(history)}

	if m.CasVals == nil {
		cas := make(map[uint64]string, len(history))
		casKey := make(map[uint64]string, len(history))
		casOp := make(map[uint64]int, len(history))
		for i := range history {
			op := &history[i]
			if op.RCAS == 0 || op.Res != model.ResOK {
				continue
			}
			if prev, seen := cas[op.RCAS]; seen {
				if prev != string(op.RVal) || casKey[op.RCAS] != op.Key {
					res.Ok = false
					res.Key = op.Key
					res.Violation = fmt.Sprintf(
						"cas generation %d observed with two different contents: %s[%d] saw %q/%q, %s[%d] saw %q/%q",
						op.RCAS, history[casOp[op.RCAS]].Kind, casOp[op.RCAS],
						casKey[op.RCAS], prev, op.Kind, i, op.Key, op.RVal)
					res.Witness = []model.Op{history[casOp[op.RCAS]], *op}
					return res
				}
				continue
			}
			cas[op.RCAS] = string(op.RVal)
			casKey[op.RCAS] = op.Key
			casOp[op.RCAS] = i
		}
		m.CasVals = cas
	}

	// Partition into per-key subhistories; flushes enter all of them.
	byKey := make(map[string][]model.Op)
	var flushes []model.Op
	for i := range history {
		if history[i].Kind == model.Flush {
			flushes = append(flushes, history[i])
			continue
		}
		byKey[history[i].Key] = append(byKey[history[i].Key], history[i])
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res.Keys = len(keys)

	for _, k := range keys {
		sub := byKey[k]
		if len(flushes) > 0 {
			sub = append(append([]model.Op(nil), sub...), flushes...)
			sort.Slice(sub, func(a, b int) bool { return sub[a].Invoke < sub[b].Invoke })
		}
		if len(sub) > res.MaxKeyOps {
			res.MaxKeyOps = len(sub)
		}
		v, steps := checkKey(sub, m, budget)
		res.StatesExplored += steps
		switch v {
		case vUndecided:
			res.Undecided = append(res.Undecided, k)
		case vViolation:
			res.Ok = false
			res.Key = k
			if !opts.NoShrink {
				sub = Shrink(sub, m, budget)
			}
			res.Witness = sub
			res.Violation = fmt.Sprintf(
				"key %q: no linearization of %d ops explains the recorded results; witness:\n%s",
				k, len(sub), FormatOps(sub))
			return res
		}
	}
	return res
}

// entry is one node of the doubly linked entry list: a call entry
// (match != nil, pointing at its return entry) or a return entry.
type entry struct {
	op         int // index into the subhistory
	match      *entry
	time       uint64
	prev, next *entry
}

// lift removes a call entry and its return from the list; unlift undoes
// it. Lifted entries keep their prev/next pointers, so unlifting in
// LIFO order reinserts them exactly where they were.
func (e *entry) lift() {
	e.prev.next = e.next
	e.next.prev = e.prev // a call always has its return after it
	r := e.match
	r.prev.next = r.next
	if r.next != nil {
		r.next.prev = r.prev
	}
}

func (e *entry) unlift() {
	r := e.match
	r.prev.next = r
	if r.next != nil {
		r.next.prev = r
	}
	e.prev.next = e
	e.next.prev = e
}

// buildEntries threads the subhistory into the entry list, returning
// the sentinel head.
func buildEntries(sub []model.Op) *entry {
	nodes := make([]*entry, 0, 2*len(sub))
	for i := range sub {
		call := &entry{op: i, time: sub[i].Invoke}
		ret := &entry{op: i, time: sub[i].Return}
		call.match = ret
		nodes = append(nodes, call, ret)
	}
	sort.SliceStable(nodes, func(a, b int) bool {
		if nodes[a].time != nodes[b].time {
			return nodes[a].time < nodes[b].time
		}
		// Equal stamps only happen among pending returns (MaxUint64);
		// order is immaterial, keep it deterministic.
		return nodes[a].op < nodes[b].op
	})
	head := &entry{op: -1}
	cur := head
	for _, n := range nodes {
		n.prev = cur
		cur.next = n
		cur = n
	}
	return head
}

// frame is one linearization decision on the search stack.
type frame struct {
	entry    *entry
	prior    model.State   // state before this op was applied
	variants []model.State // possible successors (ResUnknown ops branch)
	vi       int           // variant currently applied
}

// memoKey names one search configuration: the linearized set as a
// 128-bit Zobrist hash (the XOR of two random words per linearized op,
// kept up to date as ops are linearized and taken back, so a step costs
// O(1) however long the history) and the model state's canonical form.
// Two different sets that hash alike make a false hit, which can only
// prune the search: at odds near 2^-128 it could turn "ok" into a
// reported violation, but it can never hide a violation.
type memoKey struct {
	lin   [2]uint64
	state string
}

// checkKey runs the Wing&Gong/Lowe search over one key's subhistory:
// repeatedly pick a minimal op (one invoked before every un-linearized
// op's return), apply it to the model, and backtrack on contradiction,
// memoizing (linearized-set, state) configurations. Pending ops need
// not be linearized: the search succeeds as soon as every completed op
// is placed.
func checkKey(sub []model.Op, m *model.Model, budget int64) (verdict, int64) {
	nonPending := 0
	for i := range sub {
		if !sub[i].Pending {
			nonPending++
		}
	}
	if nonPending == 0 {
		return vOK, 0
	}

	head := buildEntries(sub)
	rng := rand.New(rand.NewPCG(uint64(len(sub)), 0))
	zob := make([][2]uint64, len(sub))
	for i := range zob {
		zob[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	var lin [2]uint64 // Zobrist hash of the linearized set
	flip := func(op int) { lin[0] ^= zob[op][0]; lin[1] ^= zob[op][1] }
	cache := make(map[memoKey]struct{})
	var stack []frame
	state := model.State{}
	var steps int64
	cur := head.next

	// apply tries variants of e starting at vi; on the first uncached
	// one it commits the linearization and returns true.
	apply := func(e *entry, prior model.State, variants []model.State, vi int) bool {
		flip(e.op)
		for ; vi < len(variants); vi++ {
			key := memoKey{lin, variants[vi].Canon()}
			if _, seen := cache[key]; seen {
				continue
			}
			cache[key] = struct{}{}
			stack = append(stack, frame{entry: e, prior: prior, variants: variants, vi: vi})
			state = variants[vi]
			if !sub[e.op].Pending {
				nonPending--
			}
			e.lift()
			return true
		}
		flip(e.op)
		return false
	}

	for {
		if nonPending == 0 {
			return vOK, steps
		}
		if steps > budget {
			return vUndecided, steps
		}
		if cur != nil && cur.match != nil {
			// Call entry: a candidate for the next linearization point.
			steps++
			variants := m.Step(state, &sub[cur.op])
			if len(variants) > 0 && apply(cur, state, variants, 0) {
				cur = head.next
				continue
			}
			cur = cur.next
			continue
		}
		// Return entry (or end of list): nothing before this barrier can
		// linearize next — backtrack.
		if len(stack) == 0 {
			return vViolation, steps
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f.entry.unlift()
		if !sub[f.entry.op].Pending {
			nonPending++
		}
		flip(f.entry.op)
		state = f.prior
		if apply(f.entry, f.prior, f.variants, f.vi+1) {
			cur = head.next
			continue
		}
		cur = f.entry.next
	}
}

// FormatOps renders ops one per line for witness output.
func FormatOps(ops []model.Op) string {
	var b strings.Builder
	for i := range ops {
		op := &ops[i]
		fmt.Fprintf(&b, "  [%3d] c%-2d %-7s %-12q", op.ID, op.Client, op.Kind.String(), op.Key)
		switch op.Kind {
		case model.Set, model.Add, model.Replace, model.Append, model.Prepend:
			fmt.Fprintf(&b, " val=%q", op.Val)
		case model.CAS:
			fmt.Fprintf(&b, " val=%q cas=%d", op.Val, op.CASArg)
		case model.Incr, model.Decr:
			fmt.Fprintf(&b, " delta=%d", op.Delta)
		case model.Touch, model.GAT:
			fmt.Fprintf(&b, " exp=%d", op.Exp)
		}
		fmt.Fprintf(&b, " -> %s", op.Res)
		if op.Res == model.ResOK {
			switch op.Kind {
			case model.Get, model.GAT:
				fmt.Fprintf(&b, " val=%q flags=%d cas=%d", op.RVal, op.RFlags, op.RCAS)
			case model.Incr, model.Decr:
				fmt.Fprintf(&b, " num=%d", op.RNum)
			}
		}
		if op.Pending {
			b.WriteString(" (pending)")
		}
		fmt.Fprintf(&b, "  [%d,%d]\n", op.Invoke, op.Return)
	}
	return b.String()
}
