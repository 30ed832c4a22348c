package memcached

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"

	"plibmc/internal/core"
	"plibmc/internal/protocol"
	"plibmc/internal/ring"
)

// The cluster's socket proxy: baseline-protocol clients (ASCII or binary)
// get sharding transparently. One connection carries one context per
// shard; pipelined command runs are partitioned by owning shard and each
// shard's share rides a single ExecBatch crossing — the proxy-tier
// equivalent of the beanseye pattern, with the per-shard gate
// amortization preserved. Replies always come back in command order.

// ClusterServer is the cluster's socket front end.
type ClusterServer struct {
	c      *Cluster
	ln     net.Listener
	connWG sync.WaitGroup
	seq    uint64
	mu     sync.Mutex
}

// ServeRemote starts accepting remote connections for the cluster. Close
// the returned server to stop.
func (c *Cluster) ServeRemote(network, addr string) (*ClusterServer, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("memcached: cluster listener: %w", err)
	}
	cs := &ClusterServer{c: c, ln: ln}
	go cs.acceptLoop()
	return cs, nil
}

// Addr returns the listener address.
func (cs *ClusterServer) Addr() net.Addr { return cs.ln.Addr() }

// Close stops the listener and waits for in-flight connections.
func (cs *ClusterServer) Close() {
	cs.ln.Close()
	cs.connWG.Wait()
}

func (cs *ClusterServer) acceptLoop() {
	for {
		c, err := cs.ln.Accept()
		if err != nil {
			return
		}
		cs.connWG.Add(1)
		go cs.handle(c)
	}
}

// connCtxs is one connection's per-shard operation contexts, created
// lazily so a connection that only ever touches two shards never opens a
// context on the other N-2.
type connCtxs struct {
	c     *Cluster
	owner uint64
	ctxs  []*core.Ctx
	// books pins each context to the Bookkeeper it was opened on: when
	// the supervisor rebuilds a shard, the stale context (bound to the
	// dropped store's heap) is replaced on next use.
	books []*Bookkeeper
}

func (cc *connCtxs) ctx(shard int) *core.Ctx {
	// A live resize can widen the cluster under a connection opened
	// before it; the slice grows to match.
	for len(cc.ctxs) <= shard {
		cc.ctxs = append(cc.ctxs, nil)
		cc.books = append(cc.books, nil)
	}
	b := cc.c.Shard(shard)
	if cc.ctxs[shard] == nil || cc.books[shard] != b {
		// A replaced shard's old context is dropped, not closed: Close
		// walks the old heap's allocator, and that heap is the poisoned
		// one the rebuild just abandoned.
		cc.ctxs[shard] = b.Store().NewCtx(cc.owner)
		cc.books[shard] = b
	}
	return cc.ctxs[shard]
}

func (cc *connCtxs) close() {
	for i, ctx := range cc.ctxs {
		if ctx == nil {
			continue
		}
		// Contexts on a dropped or poisoned store are leaked on purpose:
		// their teardown would touch the dead heap.
		if cc.books[i] != nil && cc.books[i].Library().Poisoned() {
			continue
		}
		ctx.Close()
	}
}

func (cs *ClusterServer) handle(c net.Conn) {
	defer cs.connWG.Done()
	defer c.Close()
	cs.mu.Lock()
	cs.seq++
	owner := uint64(1)<<41 | cs.seq // distinct from local and hybrid owners
	cs.mu.Unlock()
	nsh := cs.c.Shards()
	cc := &connCtxs{c: cs.c, owner: owner,
		ctxs: make([]*core.Ctx, nsh), books: make([]*Bookkeeper, nsh)}
	defer cc.close()
	serveConn(c, func(w *bufio.Writer, binary bool, cmds []*protocol.Command) {
		cs.dispatchShardedPipeline(cc, w, binary, cmds)
	})
}

// opRef locates one batch op inside the per-shard partition: which shard
// it went to and at which position in that shard's sub-batch.
type opRef struct {
	shard int
	pos   int
}

// dispatchShardedPipeline executes a run of pipelined commands. Every
// contiguous stretch of batchable commands is partitioned by owning shard
// and each involved shard executes its share in one ExecBatch crossing;
// replies are reassembled in command order. Non-batchable commands
// (stats, version, flush_all) dispatch individually against the cluster.
// During a live resize, routing goes through the dual-ring rules: every
// touched mid-migration segment's guard is held (shared, acquired once)
// until the run's crossings retire, and writes into such segments are
// dirty-marked for the pre-cutover recopy.
func (cs *ClusterServer) dispatchShardedPipeline(cc *connCtxs, w *bufio.Writer, binary bool, cmds []*protocol.Command) {
	c := cs.c
	for i := 0; i < len(cmds); {
		j := i
		var refs []opRef // flat op index → shard/pos
		var spans []int  // batch ops consumed per command
		c.routeMu.RLock()
		perShard := make([][]core.BatchOp, c.Shards())
		var held map[*migSeg]struct{}
		var guards []*migSeg
		if c.mig.Load() != nil {
			held = make(map[*migSeg]struct{})
		}
		for j < len(cmds) {
			cOps := batchOpsFor(cmds[j])
			if cOps == nil {
				break
			}
			for _, op := range cOps {
				sh, g := c.routeHash(ring.Hash(op.Key), held)
				if g != nil {
					if _, ok := held[g]; !ok {
						held[g] = struct{}{}
						guards = append(guards, g)
					}
					if op.Code != core.BatchGet {
						g.markDirty(op.Key)
					}
				}
				refs = append(refs, opRef{shard: sh, pos: len(perShard[sh])})
				perShard[sh] = append(perShard[sh], op)
			}
			spans = append(spans, len(cOps))
			j++
		}
		release := func() {
			for _, g := range guards {
				g.release()
			}
			c.routeMu.RUnlock()
		}
		if len(refs) > 1 {
			// One crossing per involved shard for the whole run. A shard
			// behind an open breaker (or poisoned/rebuilding — the direct
			// contexts bypass the hodor gate, so the proxy must check)
			// fills its slots with the typed fast-fail; sibling shards'
			// results keep their positional alignment.
			perShardRes := make([][]core.BatchResult, len(perShard))
			for sh := range perShard {
				if len(perShard[sh]) == 0 {
					continue
				}
				if err := c.proxyAllow(sh); err != nil {
					down := make([]core.BatchResult, len(perShard[sh]))
					for k := range down {
						down[k].Err = err
					}
					perShardRes[sh] = down
					continue
				}
				perShardRes[sh] = cc.ctx(sh).ExecBatch(perShard[sh])
			}
			release()
			flat := make([]core.BatchResult, len(refs))
			for k, ref := range refs {
				flat[k] = perShardRes[ref.shard][ref.pos]
			}
			off := 0
			for k := i; k < j; k++ {
				n := spans[k-i]
				writeBatchedReply(w, binary, cmds[k], flat[off:off+n])
				off += n
			}
			i = j
			continue
		}
		// Lone or non-batchable command: dispatchOne routes (and guards)
		// on its own.
		release()
		rep := cs.dispatchOne(cc, cmds[i])
		if binary {
			protocol.WriteBinaryReply(w, cmds[i], rep)
		} else {
			protocol.WriteASCIIReply(w, cmds[i], rep)
		}
		i++
	}
}

// dispatchOne executes a single command against the cluster: keyed
// commands route to the owning shard; keyless commands fan out or
// aggregate.
func (cs *ClusterServer) dispatchOne(cc *connCtxs, cmd *protocol.Command) *protocol.Reply {
	c := cs.c
	switch cmd.Op {
	case protocol.OpFlushAll:
		for sh := 0; sh < c.Shards(); sh++ {
			if err := c.proxyAllow(sh); err != nil {
				// A flush that cannot reach every shard must not claim
				// it flushed the cluster.
				return shardDownReply(cmd, err)
			}
			cc.ctx(sh).FlushAll()
		}
		return &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	case protocol.OpStats:
		return cs.statsReply(cc, cmd)
	case protocol.OpVersion:
		return &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque,
			Version: fmt.Sprintf("1.6.0-plib-cluster/%d", c.Shards())}
	case protocol.OpNoop:
		return &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	}
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	sh, g := c.routeKey(cmd.Key)
	if g != nil {
		if cmd.Op != protocol.OpGet {
			g.markDirty(cmd.Key)
		}
		defer g.release()
	}
	if err := c.proxyAllow(sh); err != nil {
		return shardDownReply(cmd, err)
	}
	return DispatchCore(cc.ctx(sh), cmd, "1.6.0-plib-cluster")
}

// shardDownReply renders a breaker fast-fail as a wire reply: ASCII
// clients see "SERVER_ERROR shard N recovering|rebuilding", binary
// clients the temporary-failure status with the frame as the value.
func shardDownReply(cmd *protocol.Command, err error) *protocol.Reply {
	rep := &protocol.Reply{Status: protocol.StatusTempFailure, Opaque: cmd.Opaque}
	if f, ok := ShardDownFrame(err); ok {
		rep.Message = f
	}
	return rep
}

// statsReply aggregates the default counter set across shards; per-shard
// counters are appended under a shard<N>: prefix so the routing tier stays
// observable from a plain memcached client.
func (cs *ClusterServer) statsReply(cc *connCtxs, cmd *protocol.Command) *protocol.Reply {
	c := cs.c
	if cmd.StatsArg != "" {
		// Subcommand stats (latency, slabs, …) don't aggregate cleanly;
		// serve every shard's lines under its prefix.
		rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
		for sh := 0; sh < c.Shards(); sh++ {
			if err := c.proxyAllow(sh); err != nil {
				if f, ok := ShardDownFrame(err); ok {
					rep.Stats = append(rep.Stats, [2]string{fmt.Sprintf("shard%d:down", sh), f})
				}
				continue
			}
			sub := DispatchCore(cc.ctx(sh), cmd, "1.6.0-plib-cluster")
			for _, kv := range sub.Stats {
				rep.Stats = append(rep.Stats, [2]string{fmt.Sprintf("shard%d:%s", sh, kv[0]), kv[1]})
			}
		}
		return rep
	}
	agg := c.Stats()
	cm := c.Metrics()
	mm := cm.Migration
	rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	rep.Stats = [][2]string{
		{"shards", strconv.Itoa(c.Shards())},
		{"cmd_get", strconv.FormatUint(agg.Gets, 10)},
		{"get_hits", strconv.FormatUint(agg.GetHits, 10)},
		{"get_misses", strconv.FormatUint(agg.GetMisses, 10)},
		{"cmd_set", strconv.FormatUint(agg.Sets, 10)},
		{"cmd_delete", strconv.FormatUint(agg.Deletes, 10)},
		{"cmd_touch", strconv.FormatUint(agg.Touches, 10)},
		{"curr_items", strconv.FormatUint(agg.CurrItems, 10)},
		{"bytes", strconv.FormatUint(agg.Bytes, 10)},
		{"evictions", strconv.FormatUint(agg.Evictions, 10)},
		{"expired", strconv.FormatUint(agg.Expired, 10)},
		{"migration_state", strconv.Itoa(mm.State)},
		{"migration_resizes", strconv.FormatUint(mm.Resizes, 10)},
		{"migration_segments_moved", strconv.FormatUint(mm.SegmentsMoved, 10)},
		{"migration_keys_moved", strconv.FormatUint(mm.KeysMoved, 10)},
		{"shard_rebuilds", strconv.FormatUint(cm.Supervisor.Rebuilds, 10)},
		{"shard_rebuilt_empty", strconv.FormatUint(cm.Supervisor.RebuiltEmpty, 10)},
		{"breaker_trips", strconv.FormatUint(cm.Supervisor.BreakerTrips, 10)},
		{"breaker_fast_fails", strconv.FormatUint(cm.Supervisor.BreakerFastFails, 10)},
	}
	for sh := 0; sh < c.Shards(); sh++ {
		status := c.ShardStatuses()[sh]
		st := c.Shard(sh).Stats()
		rep.Stats = append(rep.Stats,
			[2]string{fmt.Sprintf("shard%d:curr_items", sh), strconv.FormatUint(st.CurrItems, 10)},
			[2]string{fmt.Sprintf("shard%d:cmd_get", sh), strconv.FormatUint(st.Gets, 10)},
			[2]string{fmt.Sprintf("shard%d:cmd_set", sh), strconv.FormatUint(st.Sets, 10)},
			[2]string{fmt.Sprintf("shard%d:state", sh), strconv.Itoa(int(c.State(sh)))},
			[2]string{fmt.Sprintf("shard%d:breaker", sh), status.Breaker},
			[2]string{fmt.Sprintf("shard%d:rebuilds", sh), strconv.FormatUint(status.Rebuilds, 10)},
		)
	}
	return rep
}
