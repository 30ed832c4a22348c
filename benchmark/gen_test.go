package main

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// goldenOps is how much of each stream the golden hashes pin.
const goldenOps = 10_000

// streamHash is the FNV-64a hash of everything the program under test is
// given for client 0's first goldenOps requests: each request's kind and,
// per key, the rendered key, the flags word and the value.
func streamHash(sp *spec, seed uint64) uint64 {
	h := fnv.New64a()
	d := newData(seed)
	st := newStream(sp, newZipf(sp.records, zipfTheta), seed, 0)
	val := make([]byte, sp.valueSize)
	var key []byte
	var r request
	for range goldenOps {
		st.next(&r)
		h.Write([]byte{byte(r.kind), byte(len(r.idxs))})
		for _, idx := range r.idxs {
			key = d.key(key[:0], idx)
			d.value(val, idx)
			fl := d.flags(idx)
			h.Write(key)
			h.Write([]byte{byte(fl), byte(fl >> 8), byte(fl >> 16), byte(fl >> 24)})
			h.Write(val)
		}
	}
	return h.Sum64()
}

// A change to the generator, to a workload's mix or to its sizes moves the
// goalposts for every later comparison; this pins them. If a change is
// meant, say so in the PR and re-measure the baseline.
func TestGoldenStreams(t *testing.T) {
	golden := map[string]uint64{
		"lib_read_128":       0x718811921a6b7fc,
		"lib_write_5k_evict": 0xddc5c632ff7a63a2,
		"lib_mget64_128":     0x89936fa74c288de8,
		"proxy_pipe16_128":   0x718811921a6b7fc, // the same records and mix as lib_read_128, through another path
		"baseline_rtt_128":   0x718811921a6b7fc,
	}
	for _, sp := range specs {
		if got := streamHash(sp, 1); got != golden[sp.name] {
			t.Errorf("%s: stream hash at seed 1 = %#x, golden %#x", sp.name, got, golden[sp.name])
		}
	}
	if streamHash(specs[0], 1) == streamHash(specs[0], 2) {
		t.Error("seeds 1 and 2 give the same stream")
	}
}

func TestStreamsDifferByClient(t *testing.T) {
	sp := specs[0]
	z := newZipf(sp.records, zipfTheta)
	a, b := newStream(sp, z, 1, 0), newStream(sp, z, 1, 1)
	var ra, rb request
	same := 0
	for range 1000 {
		a.next(&ra)
		b.next(&rb)
		if ra.idxs[0] == rb.idxs[0] {
			same++
		}
	}
	if same > 200 { // zipfian heads collide now and then; identical streams always do
		t.Errorf("clients 0 and 1 drew the same key %d times in 1000", same)
	}
}

func TestMixAndSkew(t *testing.T) {
	for _, sp := range specs {
		st := newStream(sp, newZipf(sp.records, zipfTheta), 1, 0)
		var r request
		gets, counts := 0, map[uint64]int{}
		const n = 20000
		for range n {
			st.next(&r)
			if r.kind == opGet {
				gets++
				if len(r.idxs) != sp.getKeys {
					t.Fatalf("%s: read request of %d keys, want %d", sp.name, len(r.idxs), sp.getKeys)
				}
			} else if len(r.idxs) != sp.setKeys {
				t.Fatalf("%s: write request of %d keys, want %d", sp.name, len(r.idxs), sp.setKeys)
			}
			for _, idx := range r.idxs {
				if idx >= sp.records {
					t.Fatalf("%s: index %d outside %d records", sp.name, idx, sp.records)
				}
				counts[idx]++
			}
		}
		if got := float64(gets) / n; got < sp.readFrac-0.02 || got > sp.readFrac+0.02 {
			t.Errorf("%s: read share %.3f, want %.2f", sp.name, got, sp.readFrac)
		}
		top, total := 0, 0
		for _, c := range counts {
			top, total = max(top, c), total+c
		}
		// Under zipf(0.99) the hottest of 1e5 keys draws ~8 % of picks;
		// under a uniform choice it would draw ~0.001 %.
		if share := float64(top) / float64(total); share < 0.03 {
			t.Errorf("%s: hottest key drew %.4f of picks: not zipfian", sp.name, share)
		}
	}
}

func TestKeysAndValues(t *testing.T) {
	d := newData(1)
	k0, k1 := d.key(nil, 0), d.key(nil, 99_999)
	if len(k0) != keyLen || len(k1) != keyLen || bytes.Equal(k0, k1) {
		t.Errorf("keys %q %q: want two distinct %d-byte keys", k0, k1, keyLen)
	}
	if bytes.Equal(k0, newData(2).key(nil, 0)) {
		t.Error("seeds 1 and 2 render the same key for record 0")
	}
	a, b, c := make([]byte, 133), make([]byte, 133), make([]byte, 133)
	d.value(a, 7)
	d.value(b, 7)
	d.value(c, 8)
	if !bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Error("value must be a pure function of the record index, distinct between records")
	}
	v := verifier{d, make([]byte, 133)}
	if !v.ok(7, a, d.flags(7)) || v.ok(7, c, d.flags(7)) || v.ok(7, a, d.flags(7)+1) {
		t.Error("verifier accepts a wrong value or flags, or rejects the right ones")
	}
}
