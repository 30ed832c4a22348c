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
// Missing (or expired) keys yield Found == false. It runs ExecBatch's key
// pass first (keypass.go), then each lookup rides the lock-free optimistic
// path of GetAppend, so an uncontended batch takes no locks at all.
func (c *Ctx) MGet(keys [][]byte) []GetResult {
	// One latency sample covers the whole batch; the nested lookups run
	// at operation depth 2 and never sample themselves.
	defer c.opEnd(LatMGet, c.opBegin())
	slots := c.keySlots(len(keys))
	for i, k := range keys {
		c.takeKey(&slots[i], k)
	}
	c.touchChains(slots)
	res := make([]GetResult, len(keys))
	for i, k := range keys {
		if sl := &slots[i]; sl.klen >= 0 {
			v, flags, cas, err := c.getAppend(nil, c.slotKey(sl, k), sl.hash)
			if err == nil {
				res[i] = GetResult{Value: v, Flags: flags, CAS: cas, Found: true}
			}
		}
	}
	return res
}
