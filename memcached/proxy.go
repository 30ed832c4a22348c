package memcached

import (
	"fmt"
	"net"
	"strconv"
	"sync"

	"plibmc/internal/core"
	"plibmc/internal/protocol"
)

// The cluster's socket proxy: baseline-protocol clients (ASCII or binary)
// get sharding transparently. The read loop and the dispatcher are the
// hybrid server's (hybrid.go) and the routers the ClusterSession's
// (cluster.go); this file supplies what they run against — one connection
// carries one direct context per shard, pipelined command runs are
// partitioned by owning shard and each shard's share rides a single
// ExecBatch — the proxy-tier equivalent of the beanseye pattern. Replies
// always come back in command order.

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
// context on the other N-2. It is the proxy's wireBackend (every op is
// routed first) and, once routed, its shardExec (direct contexts behind
// the breaker's peek).
type connCtxs struct {
	c      *Cluster
	owner  uint64
	stripe int // the routeMu stripe this connection read-locks
	part   batchPartition
	ctxs   []*core.Ctx
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
	cc := &connCtxs{c: cs.c, owner: owner, stripe: cs.c.routeMu.stripe()}
	defer cc.close()
	serve(c, cc)
}

func (cc *connCtxs) Do(op *BatchOp, r *BatchResult) { cc.c.routeOp(cc.stripe, op, r, cc) }

func (cc *connCtxs) ExecBatch(ops []BatchOp, res []BatchResult, vbuf []byte) []byte {
	return cc.c.routeBatch(cc.stripe, ops, res, vbuf, cc, &cc.part)
}

// The direct contexts bypass the hodor gate, so a shard behind an open
// breaker — or poisoned, or rebuilding — is refused by proxyAllow with the
// typed fast-fail instead.
func (cc *connCtxs) doShard(shard int, op *BatchOp, r *BatchResult) {
	if err := cc.c.proxyAllow(shard); err != nil {
		*r = BatchResult{Err: err}
		return
	}
	cc.ctx(shard).Do(op, r)
}

func (cc *connCtxs) batchShard(shard int, ops []BatchOp, res []BatchResult, vbuf []byte) ([]byte, error) {
	if err := cc.c.proxyAllow(shard); err != nil {
		return nil, err
	}
	return cc.ctx(shard).ExecBatch(ops, res, vbuf), nil
}

// admin answers the keyless commands against the whole cluster: they fan
// out or aggregate.
func (cc *connCtxs) admin(cmd *protocol.Command) *protocol.Reply {
	c := cc.c
	rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	switch cmd.Op {
	case protocol.OpFlushAll:
		for sh := 0; sh < c.Shards(); sh++ {
			if err := c.proxyAllow(sh); err != nil {
				// A flush that cannot reach every shard must not claim
				// it flushed the cluster.
				*rep = replyFor(cmd, &BatchResult{Err: err})
				return rep
			}
			cc.ctx(sh).FlushAll()
		}
	case protocol.OpStats:
		return cc.statsReply(cmd)
	case protocol.OpVersion:
		rep.Version = fmt.Sprintf("1.6.0-plib-cluster/%d", c.Shards())
	case protocol.OpNoop:
	default:
		rep.Status = protocol.StatusUnknownCommand
	}
	return rep
}

// statsReply aggregates the default counter set across shards; per-shard
// counters are appended under a shard<N>: prefix so the routing tier stays
// observable from a plain memcached client.
func (cc *connCtxs) statsReply(cmd *protocol.Command) *protocol.Reply {
	c := cc.c
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
			sub := adminCore(cc.ctx(sh), cmd, "")
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
