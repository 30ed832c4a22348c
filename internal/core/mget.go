package core

// Batched retrieval. The socket memcached devotes much of its client
// library to batching because every round trip costs microseconds; for the
// protected library a batch instead amortizes the (much smaller) trampoline
// crossing: one rights amplification covers N lookups.

// GetResult is one key's outcome in a batched MGet.
type GetResult struct {
	Value []byte
	Flags uint32
	CAS   uint64
	Found bool
}

// MGet looks up every key and returns one result per key, in order.
// Missing (or expired) keys yield Found == false. It is one ExecBatch of
// BatchGet ops, built in scratch the context keeps, so a batch of lookups
// has one loop, one key pass and one latency sample (class LatBatch). The
// values share one fresh buffer that the caller owns.
func (c *Ctx) MGet(keys [][]byte) []GetResult {
	if cap(c.mgetOps) < len(keys) {
		c.mgetOps = make([]BatchOp, len(keys))
		c.mgetRes = make([]BatchResult, len(keys))
	}
	ops, res := c.mgetOps[:len(keys)], c.mgetRes[:len(keys)]
	for i, k := range keys {
		ops[i] = BatchOp{Code: BatchGet, Key: k}
	}
	c.ExecBatch(ops, res, nil)
	out := make([]GetResult, len(keys))
	for i := range res {
		if r := &res[i]; r.Err == nil {
			out[i] = GetResult{Value: r.Value, Flags: r.Flags, CAS: r.CAS, Found: true}
		}
	}
	clear(ops) // keep no client key, nor the caller's values, alive
	clear(res)
	return out
}
