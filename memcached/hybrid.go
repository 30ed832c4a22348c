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

// maxPipeline bounds how many pipelined commands one batched dispatch
// carries; a deeper client pipeline simply splits into several batches.
const maxPipeline = 64

func (rs *RemoteServer) handle(c net.Conn) {
	defer rs.connWG.Done()
	defer c.Close()
	rs.mu.Lock()
	rs.seq++
	owner := uint64(1)<<40 | rs.seq // distinct from local thread owners
	rs.mu.Unlock()
	ctx := rs.b.store.NewCtx(owner)
	defer ctx.Close()
	serveConn(c, func(w *bufio.Writer, binary bool, cmds []*protocol.Command) {
		dispatchPipeline(ctx, w, binary, cmds)
	})
}

// serveConn is the read loop of both socket front ends (this one and the
// cluster proxy): sniff the protocol, hand each pipelined run of commands
// to dispatch, which writes their replies to w in command order, and
// flush. A command that does not parse ends the connection, after the
// replies of the commands before it and, in ASCII, a CLIENT_ERROR line.
func serveConn(c net.Conn, dispatch func(w *bufio.Writer, binary bool, cmds []*protocol.Command)) {
	r := bufio.NewReaderSize(c, 64<<10)
	w := bufio.NewWriterSize(c, 64<<10)
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	isBinary := first[0] == 0x80
	readCmd := func() (*protocol.Command, error) {
		if isBinary {
			return protocol.ReadBinaryCommand(r)
		}
		return protocol.ReadASCIICommand(r)
	}
	cmds := make([]*protocol.Command, 0, maxPipeline)
	for {
		// Read one command (blocking), then greedily drain whatever the
		// client already pipelined: back-to-back commands become one
		// batched dispatch, so remote pipelines amortize the gate exactly
		// like local ExecBatch callers.
		cmds = cmds[:0]
		cmd, err := readCmd()
		if err != nil {
			if !isBinary {
				fmt.Fprintf(w, "CLIENT_ERROR %v\r\n", err)
				w.Flush()
			}
			return
		}
		quit := cmd.Op == protocol.OpQuit
		var readErr error
		if !quit {
			cmds = append(cmds, cmd)
			for len(cmds) < maxPipeline && r.Buffered() > 0 {
				c2, e := readCmd()
				if e != nil {
					readErr = e
					break
				}
				if c2.Op == protocol.OpQuit {
					quit = true
					break
				}
				cmds = append(cmds, c2)
			}
		}
		dispatch(w, isBinary, cmds)
		if readErr != nil && !isBinary {
			fmt.Fprintf(w, "CLIENT_ERROR %v\r\n", readErr)
		}
		if quit || readErr != nil {
			w.Flush()
			return
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// dispatchPipeline executes a run of pipelined commands, riding ExecBatch
// for every contiguous stretch of batchable ones (including the expansion
// of ASCII multi-key gets) and falling back to single dispatch for the
// rest. Replies are written in command order.
func dispatchPipeline(ctx *core.Ctx, w *bufio.Writer, binary bool, cmds []*protocol.Command) {
	for i := 0; i < len(cmds); {
		// Collect the contiguous batchable run starting at i.
		j := i
		var ops []core.BatchOp
		var spans []int // batch ops consumed per command
		for j < len(cmds) {
			cOps := batchOpsFor(cmds[j])
			if cOps == nil {
				break
			}
			ops = append(ops, cOps...)
			spans = append(spans, len(cOps))
			j++
		}
		if len(ops) > 1 {
			res := ctx.ExecBatch(ops)
			off := 0
			for k := i; k < j; k++ {
				n := spans[k-i]
				writeBatchedReply(w, binary, cmds[k], res[off:off+n])
				off += n
			}
			i = j
			continue
		}
		// Lone command (or a non-batchable one): ordinary dispatch, which
		// keeps per-class latency attribution for singletons.
		rep := DispatchCore(ctx, cmds[i], "1.6.0-plib-hybrid")
		if binary {
			protocol.WriteBinaryReply(w, cmds[i], rep)
		} else {
			protocol.WriteASCIIReply(w, cmds[i], rep)
		}
		i++
	}
}

// batchOpsFor returns cmd's batch encoding — one op, or one per key for a
// multi-key get — or nil when the command cannot ride a batch (stats,
// version, flush_all, noop).
func batchOpsFor(cmd *protocol.Command) []core.BatchOp {
	switch cmd.Op {
	case protocol.OpGet:
		keys := cmd.AllKeys()
		ops := make([]core.BatchOp, len(keys))
		for i, k := range keys {
			ops[i] = core.BatchOp{Code: core.BatchGet, Key: k}
		}
		return ops
	case protocol.OpSet:
		return []core.BatchOp{{Code: core.BatchSet, Key: cmd.Key, Value: cmd.Value, Flags: cmd.Flags, Exptime: cmd.Exptime}}
	case protocol.OpAdd:
		return []core.BatchOp{{Code: core.BatchAdd, Key: cmd.Key, Value: cmd.Value, Flags: cmd.Flags, Exptime: cmd.Exptime}}
	case protocol.OpReplace:
		return []core.BatchOp{{Code: core.BatchReplace, Key: cmd.Key, Value: cmd.Value, Flags: cmd.Flags, Exptime: cmd.Exptime}}
	case protocol.OpCAS:
		return []core.BatchOp{{Code: core.BatchCAS, Key: cmd.Key, Value: cmd.Value, Flags: cmd.Flags, Exptime: cmd.Exptime, CAS: cmd.CAS}}
	case protocol.OpAppend:
		return []core.BatchOp{{Code: core.BatchAppend, Key: cmd.Key, Value: cmd.Value}}
	case protocol.OpPrepend:
		return []core.BatchOp{{Code: core.BatchPrepend, Key: cmd.Key, Value: cmd.Value}}
	case protocol.OpDelete:
		return []core.BatchOp{{Code: core.BatchDelete, Key: cmd.Key}}
	case protocol.OpIncr:
		return []core.BatchOp{{Code: core.BatchIncr, Key: cmd.Key, Delta: cmd.Delta}}
	case protocol.OpDecr:
		return []core.BatchOp{{Code: core.BatchDecr, Key: cmd.Key, Delta: cmd.Delta}}
	case protocol.OpTouch:
		return []core.BatchOp{{Code: core.BatchTouch, Key: cmd.Key, Exptime: cmd.Exptime}}
	case protocol.OpGAT:
		return []core.BatchOp{{Code: core.BatchGAT, Key: cmd.Key, Exptime: cmd.Exptime}}
	default:
		return nil
	}
}

// writeBatchedReply renders one command's share of a batch's results. An
// ASCII multi-key get consumes several results under a single END;
// everything else is one result translated to the ordinary reply.
func writeBatchedReply(w *bufio.Writer, binary bool, cmd *protocol.Command, res []core.BatchResult) {
	if !binary && cmd.Op == protocol.OpGet && len(cmd.Keys) > 0 {
		keys := cmd.AllKeys()
		// A key whose shard is down must not masquerade as a miss: the
		// response ends with the SERVER_ERROR line instead of END so the
		// client knows the multiget was partial.
		var downFrame string
		for i := range res {
			if res[i].Err == nil {
				fmt.Fprintf(w, "VALUE %s %d %d %d\r\n", keys[i], res[i].Flags, len(res[i].Value), res[i].CAS)
				w.Write(res[i].Value)
				w.WriteString("\r\n")
			} else if f, ok := ShardDownFrame(res[i].Err); ok && downFrame == "" {
				downFrame = f
			}
		}
		if downFrame != "" {
			fmt.Fprintf(w, "SERVER_ERROR %s\r\n", downFrame)
			return
		}
		w.WriteString("END\r\n")
		return
	}
	r := &res[0]
	rep := &protocol.Reply{Status: coreStatus(r.Err), Opaque: cmd.Opaque}
	if r.Err == nil {
		rep.Value, rep.Flags, rep.CAS, rep.Numeric = r.Value, r.Flags, r.CAS, r.Num
	} else if f, ok := ShardDownFrame(r.Err); ok {
		rep.Message = f
	}
	if binary {
		protocol.WriteBinaryReply(w, cmd, rep)
	} else {
		protocol.WriteASCIIReply(w, cmd, rep)
	}
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
// store context, translating core errors into wire statuses.
func DispatchCore(ctx *core.Ctx, cmd *protocol.Command, version string) *protocol.Reply {
	rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	toStatus := coreStatus
	switch cmd.Op {
	case protocol.OpGet:
		v, flags, cas, err := ctx.Get(cmd.Key)
		rep.Status = toStatus(err)
		if err == nil {
			rep.Value, rep.Flags, rep.CAS = v, flags, cas
		}
	case protocol.OpSet:
		rep.Status = toStatus(ctx.Set(cmd.Key, cmd.Value, cmd.Flags, cmd.Exptime))
	case protocol.OpAdd:
		rep.Status = toStatus(ctx.Add(cmd.Key, cmd.Value, cmd.Flags, cmd.Exptime))
	case protocol.OpReplace:
		rep.Status = toStatus(ctx.Replace(cmd.Key, cmd.Value, cmd.Flags, cmd.Exptime))
	case protocol.OpCAS:
		rep.Status = toStatus(ctx.CAS(cmd.Key, cmd.Value, cmd.Flags, cmd.Exptime, cmd.CAS))
	case protocol.OpAppend:
		rep.Status = toStatus(ctx.Append(cmd.Key, cmd.Value))
	case protocol.OpPrepend:
		rep.Status = toStatus(ctx.Prepend(cmd.Key, cmd.Value))
	case protocol.OpDelete:
		rep.Status = toStatus(ctx.Delete(cmd.Key))
	case protocol.OpIncr:
		v, err := ctx.Increment(cmd.Key, cmd.Delta)
		rep.Numeric, rep.Status = v, toStatus(err)
	case protocol.OpDecr:
		v, err := ctx.Decrement(cmd.Key, cmd.Delta)
		rep.Numeric, rep.Status = v, toStatus(err)
	case protocol.OpTouch:
		rep.Status = toStatus(ctx.Touch(cmd.Key, cmd.Exptime))
	case protocol.OpGAT:
		v, flags, cas, err := ctx.GetAndTouch(cmd.Key, cmd.Exptime)
		rep.Status = toStatus(err)
		if err == nil {
			rep.Value, rep.Flags, rep.CAS = v, flags, cas
		}
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
