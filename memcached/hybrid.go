package memcached

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"

	"plibmc/internal/core"
	"plibmc/internal/protocol"
)

// Hybrid mode (paper §6): "there is no reason … not to allow the memcached
// background process to provide a socket-based interface for remote clients
// while still permitting local clients to use the Hodor interface." The
// bookkeeping process serves both wire protocols over any listener; local
// processes keep calling through trampolines into the very same store.

// RemoteServer is the bookkeeper's socket front end for remote clients.
type RemoteServer struct {
	b      *Bookkeeper
	ln     net.Listener
	connWG sync.WaitGroup
	seq    uint64
	mu     sync.Mutex
}

// ServeRemote starts accepting remote connections. Close the returned
// server to stop.
func (b *Bookkeeper) ServeRemote(network, addr string) (*RemoteServer, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("memcached: hybrid listener: %w", err)
	}
	rs := &RemoteServer{b: b, ln: ln}
	go rs.acceptLoop()
	return rs, nil
}

// Addr returns the listener address.
func (rs *RemoteServer) Addr() net.Addr { return rs.ln.Addr() }

// Close stops the listener and waits for in-flight connections.
func (rs *RemoteServer) Close() {
	rs.ln.Close()
	rs.connWG.Wait()
}

func (rs *RemoteServer) acceptLoop() {
	for {
		c, err := rs.ln.Accept()
		if err != nil {
			return
		}
		rs.connWG.Add(1)
		go rs.handle(c)
	}
}

func (rs *RemoteServer) handle(c net.Conn) {
	defer rs.connWG.Done()
	defer c.Close()
	rs.mu.Lock()
	rs.seq++
	owner := uint64(1)<<40 | rs.seq // distinct from local thread owners
	rs.mu.Unlock()
	ctx := rs.b.store.NewCtx(owner)
	defer ctx.Close()
	serve(c, &ctxBackend{Ctx: ctx, version: "1.6.0-plib-hybrid"})
}

// serve runs the shared read loop on c, dispatching each pipelined run of
// commands against be.
func serve(c net.Conn, be wireBackend) {
	protocol.ServeConn(c, 0, (&wireConn{be: be}).dispatchRun)
}

// wireConn is one connection's dispatcher. A connection models a thread,
// so what a run needs — its commands as ops, their result slots, the
// buffer the retrieved values share — is its own, lent to the backend and
// reused run after run.
type wireConn struct {
	be    wireBackend
	ops   []core.BatchOp
	spans []int // batch ops consumed per command
	res   []core.BatchResult
	vbuf  []byte
	one   core.BatchResult // the lone op's result frame
}

// wireBackend is what a socket front end's dispatcher needs from the store
// behind it: core.Ctx's two entry points, with its contracts — the hybrid
// server's is a Ctx, the cluster proxy's routes each op to its shard's Ctx.
type wireBackend interface {
	Do(op *core.BatchOp, r *core.BatchResult)
	ExecBatch(ops []core.BatchOp, res []core.BatchResult, vbuf []byte) []byte
	// admin answers a command that is not a keyed operation: flush_all,
	// stats, version, noop.
	admin(cmd *protocol.Command) *protocol.Reply
}

// ctxBackend serves a connection from one direct store context.
type ctxBackend struct {
	*core.Ctx
	version string
}

func (b *ctxBackend) admin(cmd *protocol.Command) *protocol.Reply {
	return adminCore(b.Ctx, cmd, b.version)
}

// dispatchRun executes one pipelined run of commands against be and writes
// the replies in command order. Every contiguous stretch of keyed commands
// (including the expansion of ASCII multi-key gets) rides one batch, so
// remote pipelines amortize the gate exactly like local ExecBatch callers;
// a lone op is executed on its own, which keeps its latency class, and
// the admin verbs are answered one by one.
//
// The commands borrow the connection's read window (protocol.ServeConn),
// and so do the ops translated from them: the stores copy keys and values
// into their heaps, and the ops are wiped before the window is released.
func (wc *wireConn) dispatchRun(w *bufio.Writer, binary bool, cmds []protocol.Command) {
	be := wc.be
	for i := 0; i < len(cmds); {
		ops, spans := wc.ops[:0], wc.spans[:0]
		j := i
		for ; j < len(cmds); j++ {
			n := len(ops)
			if ops = appendOps(ops, &cmds[j]); len(ops) == n {
				break
			}
			spans = append(spans, len(ops)-n)
		}
		switch len(ops) {
		case 0:
			writeReply(w, binary, &cmds[i], be.admin(&cmds[i]))
			i++
		case 1:
			be.Do(&ops[0], &wc.one)
			rep := replyFor(&cmds[i], &wc.one)
			writeReply(w, binary, &cmds[i], &rep)
			i++
		default:
			res := lend(&wc.res, len(ops))
			wc.vbuf = be.ExecBatch(ops, res, wc.vbuf[:0])
			for k, n := range spans {
				if cmd := &cmds[i+k]; n == 1 {
					rep := replyFor(cmd, &res[0])
					writeReply(w, binary, cmd, &rep)
				} else {
					writeValues(w, cmd, res[:n])
				}
				res = res[n:]
			}
			i = j
		}
		clear(ops)
		wc.ops, wc.spans = ops, spans
	}
}

// appendOps appends cmd's batch encoding to ops — one op, or one per key
// for an ASCII multi-key get — and nothing for a command that is not a
// keyed operation (flush_all, stats, version, noop). It is the one
// translation from the wire's vocabulary to the data plane's.
func appendOps(ops []core.BatchOp, cmd *protocol.Command) []core.BatchOp {
	var code core.BatchCode
	switch cmd.Op {
	case protocol.OpGet:
		code = core.BatchGet
	case protocol.OpGAT:
		code = core.BatchGAT
	case protocol.OpSet:
		code = core.BatchSet
	case protocol.OpAdd:
		code = core.BatchAdd
	case protocol.OpReplace:
		code = core.BatchReplace
	case protocol.OpCAS:
		code = core.BatchCAS
	case protocol.OpAppend:
		code = core.BatchAppend
	case protocol.OpPrepend:
		code = core.BatchPrepend
	case protocol.OpDelete:
		code = core.BatchDelete
	case protocol.OpIncr:
		code = core.BatchIncr
	case protocol.OpDecr:
		code = core.BatchDecr
	case protocol.OpTouch:
		code = core.BatchTouch
	default:
		return ops
	}
	// Each code reads only its own fields (see BatchOp), so the command's
	// are copied across wholesale.
	ops = append(ops, core.BatchOp{Code: code, Key: cmd.Key, Value: cmd.Value,
		Flags: cmd.Flags, Exptime: cmd.Exptime, Delta: cmd.Delta, CAS: cmd.CAS})
	for _, k := range cmd.Keys {
		ops = append(ops, core.BatchOp{Code: code, Key: k})
	}
	return ops
}

// replyFor renders one op's result as the reply to cmd: the one
// translation back from the data plane's vocabulary to the wire's. (By
// value, so a dispatcher's replies stay on its stack.)
func replyFor(cmd *protocol.Command, r *core.BatchResult) protocol.Reply {
	rep := protocol.Reply{Status: coreStatus(r.Err), Opaque: cmd.Opaque}
	if r.Err == nil {
		rep.Value, rep.Flags, rep.CAS, rep.Numeric = r.Value, r.Flags, r.CAS, r.Num
	} else if rep.Status == protocol.StatusTempFailure {
		rep.Message, _ = ShardDownFrame(r.Err)
	}
	return rep
}

func writeReply(w *bufio.Writer, binary bool, cmd *protocol.Command, rep *protocol.Reply) {
	if binary {
		protocol.WriteBinaryReply(w, cmd, rep)
	} else {
		protocol.WriteASCIIReply(w, cmd, rep)
	}
}

// writeValues renders an ASCII multi-key get: one VALUE block per hit
// under a single END.
func writeValues(w *bufio.Writer, cmd *protocol.Command, res []core.BatchResult) {
	// A key whose shard is down must not masquerade as a miss: the
	// response ends with the SERVER_ERROR line instead of END so the
	// client knows the multiget was partial.
	var downFrame string
	for i := range res {
		if res[i].Err == nil {
			protocol.WriteASCIIValue(w, cmd.KeyAt(i), res[i].Flags, res[i].Value, res[i].CAS)
		} else if f, ok := ShardDownFrame(res[i].Err); ok && downFrame == "" {
			downFrame = f
		}
	}
	if downFrame != "" {
		fmt.Fprintf(w, "SERVER_ERROR %s\r\n", downFrame)
		return
	}
	w.WriteString("END\r\n")
}

// coreStatus translates a core error into a wire status.
func coreStatus(err error) protocol.Status {
	switch {
	case err == nil:
		return protocol.StatusOK
	case errors.Is(err, core.ErrNotFound):
		return protocol.StatusKeyNotFound
	case errors.Is(err, core.ErrExists), errors.Is(err, core.ErrCASMismatch):
		return protocol.StatusKeyExists
	case errors.Is(err, core.ErrNotNumeric):
		return protocol.StatusNonNumeric
	case errors.Is(err, core.ErrValueTooBig):
		return protocol.StatusValueTooLarge
	case errors.Is(err, core.ErrNoSpace):
		return protocol.StatusOutOfMemory
	case errors.Is(err, ErrShardDown):
		return protocol.StatusTempFailure
	default:
		return protocol.StatusInvalidArgs
	}
}

// DispatchCore executes one protocol command against a protected-library
// store context: translate, Ctx.Do, render — or an admin verb.
func DispatchCore(ctx *core.Ctx, cmd *protocol.Command, version string) *protocol.Reply {
	var one [1]core.BatchOp
	ops := appendOps(one[:0], cmd)
	if len(ops) == 0 {
		return adminCore(ctx, cmd, version)
	}
	var r core.BatchResult
	ctx.Do(&ops[0], &r)
	rep := replyFor(cmd, &r)
	return &rep
}

// adminCore answers the commands that are not keyed operations against
// one store context.
func adminCore(ctx *core.Ctx, cmd *protocol.Command, version string) *protocol.Reply {
	rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	switch cmd.Op {
	case protocol.OpFlushAll:
		ctx.FlushAll()
	case protocol.OpStats:
		if cmd.StatsArg == "latency" {
			// The heap-resident scattered histograms, merged across slots.
			ls := ctx.Store().Latency()
			for class := 0; class < core.NumLatClasses; class++ {
				h := &ls.Classes[class]
				prefix := core.LatClassNames[class]
				rep.Stats = append(rep.Stats,
					[2]string{prefix + ":count", strconv.FormatUint(h.Count(), 10)},
					[2]string{prefix + ":p50_us", strconv.FormatInt(h.Percentile(50).Microseconds(), 10)},
					[2]string{prefix + ":p99_us", strconv.FormatInt(h.Percentile(99).Microseconds(), 10)},
					[2]string{prefix + ":max_us", strconv.FormatInt(h.Max().Microseconds(), 10)},
				)
			}
			break
		}
		st := ctx.Store().Stats()
		rep.Stats = [][2]string{
			{"cmd_get", strconv.FormatUint(st.Gets, 10)},
			{"get_hits", strconv.FormatUint(st.GetHits, 10)},
			{"get_misses", strconv.FormatUint(st.GetMisses, 10)},
			{"cmd_set", strconv.FormatUint(st.Sets, 10)},
			{"cmd_delete", strconv.FormatUint(st.Deletes, 10)},
			{"cmd_touch", strconv.FormatUint(st.Touches, 10)},
			{"curr_items", strconv.FormatUint(st.CurrItems, 10)},
			{"bytes", strconv.FormatUint(st.Bytes, 10)},
			{"evictions", strconv.FormatUint(st.Evictions, 10)},
			{"expired", strconv.FormatUint(st.Expired, 10)},
		}
	case protocol.OpVersion:
		rep.Version = version
	case protocol.OpNoop:
	default:
		rep.Status = protocol.StatusUnknownCommand
	}
	return rep
}
