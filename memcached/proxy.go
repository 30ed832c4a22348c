package memcached

import (
	"fmt"
	"strconv"

	"plibmc/internal/core"
	"plibmc/internal/protocol"
)

// The cluster's socket proxy: baseline-protocol clients (ASCII or binary)
// get sharding transparently. The server is one client process of the
// cluster, and each connection borrows one of its ClusterSessions: the read
// loop and the dispatcher are the hybrid server's (hybrid.go), so pipelined
// command runs are partitioned by owning shard and each shard's share
// crosses that shard's gate once — the proxy-tier equivalent of the
// beanseye pattern. Replies always come back in command order.

// ClusterServer is the cluster's socket front end.
type ClusterServer struct{ frontEnd[*ClusterSession] }

// ServeRemote starts accepting remote connections for the cluster. Close
// the returned server to stop.
func (c *Cluster) ServeRemote(network, addr string) (*ClusterServer, error) {
	cc, err := c.NewClientProcess(ownerUID)
	if err != nil {
		return nil, fmt.Errorf("memcached: cluster attach: %w", err)
	}
	cs := &ClusterServer{frontEnd[*ClusterSession]{
		pool:  pool[*ClusterSession]{open: cc.NewSession},
		admin: c.admin,
		exit:  cc.Close,
	}}
	if err := cs.listen(network, addr); err != nil {
		return nil, fmt.Errorf("memcached: cluster listener: %w", err)
	}
	return cs, nil
}

// admin answers the keyless commands against the whole cluster: they fan
// out or aggregate.
func (c *Cluster) admin(s *ClusterSession, cmd *protocol.Command) *protocol.Reply {
	rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	switch cmd.Op {
	case protocol.OpFlushAll:
		// A flush that cannot reach every shard must not claim it
		// flushed the cluster.
		if cmd.Exptime != 0 {
			rep.Status = protocol.StatusInvalidArgs
		} else if err := s.FlushAll(); err != nil {
			*rep = replyFor(cmd, &BatchResult{Err: err})
		}
	case protocol.OpStats:
		return c.statsReply(cmd)
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
func (c *Cluster) statsReply(cmd *protocol.Command) *protocol.Reply {
	if cmd.StatsArg != "" {
		// Subcommand stats (latency, slabs, …) don't aggregate cleanly;
		// serve every shard's lines under its prefix, read from its store.
		// A shard that is not healthy is reported down instead: reading
		// stats takes no probe, and a store under repair is left alone.
		rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
		for sh := 0; sh < c.Shards(); sh++ {
			if st := c.State(sh); st != ShardHealthy {
				rep.Stats = append(rep.Stats, [2]string{fmt.Sprintf("shard%d:down", sh), (&shardDownError{shard: sh, state: st}).frame()})
				continue
			}
			sub := adminCore(c.Shard(sh).Store(), nil, cmd, "")
			for _, kv := range sub.Stats {
				rep.Stats = append(rep.Stats, [2]string{fmt.Sprintf("shard%d:%s", sh, kv[0]), kv[1]})
			}
		}
		return rep
	}
	// One topology and one read of each store serve every line.
	t := c.top()
	per := make([]core.Stats, len(t.shards))
	var agg core.Stats
	for sh, b := range t.shards {
		per[sh] = b.Stats()
		addStats(&agg, per[sh])
	}
	mm, sup := c.MigrationStatus(), c.supervisorMetrics()
	rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	rep.Stats = appendStats([][2]string{{"shards", strconv.Itoa(len(t.shards))}}, agg)
	rep.Stats = append(rep.Stats,
		[2]string{"migration_state", strconv.Itoa(mm.state())},
		[2]string{"migration_resizes", strconv.FormatUint(mm.Resizes, 10)},
		[2]string{"migration_segments_moved", strconv.FormatUint(mm.SegmentsMoved, 10)},
		[2]string{"migration_keys_moved", strconv.FormatUint(mm.KeysMoved, 10)},
		[2]string{"shard_rebuilds", strconv.FormatUint(sup.Rebuilds, 10)},
		[2]string{"shard_rebuilt_empty", strconv.FormatUint(sup.RebuiltEmpty, 10)},
		[2]string{"breaker_trips", strconv.FormatUint(sup.BreakerTrips, 10)},
		[2]string{"breaker_fast_fails", strconv.FormatUint(sup.BreakerFastFails, 10)},
	)
	for sh, status := range c.shardStatuses(t) {
		st := &per[sh]
		rep.Stats = append(rep.Stats,
			[2]string{fmt.Sprintf("shard%d:curr_items", sh), strconv.FormatUint(st.CurrItems, 10)},
			[2]string{fmt.Sprintf("shard%d:cmd_get", sh), strconv.FormatUint(st.Gets, 10)},
			[2]string{fmt.Sprintf("shard%d:cmd_set", sh), strconv.FormatUint(st.Sets, 10)},
			[2]string{fmt.Sprintf("shard%d:state", sh), strconv.Itoa(int(status.State))},
			[2]string{fmt.Sprintf("shard%d:breaker", sh), status.Breaker},
			[2]string{fmt.Sprintf("shard%d:rebuilds", sh), strconv.FormatUint(status.Rebuilds, 10)},
		)
	}
	return rep
}
