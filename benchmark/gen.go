package main

import (
	"encoding/binary"
	"math"
)

// The benchmark owns its workload generator: key chooser, key and value
// functions and the op-mix RNG live here, so a later change to
// internal/ycsb cannot move what these workloads measure. The program
// under test sees only the generated keys and values.

// rng is splitmix64: tiny, seedable, and fixed by this file rather than
// by a library version.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float64 returns a uniform value in [0,1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// zipfTheta is YCSB's default skew.
const zipfTheta = 0.99

// zipf holds the constants of the Gray et al. zipfian sampler (the one
// YCSB uses). It is immutable once built, so every client of a workload
// shares one: zeta(n) is the expensive part.
type zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

// rank maps a uniform u to a popularity rank (0 is the most popular).
func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// scrambled draws a record index with zipfian popularity, the popular
// ranks scattered over the index space as YCSB's scrambled generator does.
func (z *zipf) scrambled(r *rng) uint64 { return mix64(z.rank(r.float64())) % z.n }

type opKind uint8

const (
	opGet opKind = iota
	opSet
)

// request is one call a client makes: a Get or Set of one key, or on the
// batch workload an MGet of spec.getKeys keys or an ExecBatch of
// spec.setKeys Sets.
type request struct {
	kind opKind
	idxs []uint64
}

// stream is one client's request sequence, a pure function of (workload,
// seed, client number). The mix and the key choice draw from separate
// generators so the Get/Set sequence does not depend on keys per request.
type stream struct {
	sp       *spec
	z        *zipf
	mix, key rng
}

func newStream(sp *spec, z *zipf, seed uint64, client int) *stream {
	base := mix64(seed) ^ mix64(uint64(client)+1)<<1
	return &stream{sp: sp, z: z, mix: rng{base}, key: rng{^base}}
}

// next fills r with the stream's next request, reusing r.idxs.
func (s *stream) next(r *request) {
	n := s.sp.getKeys
	r.kind = opGet
	if s.mix.float64() >= s.sp.readFrac {
		r.kind, n = opSet, s.sp.setKeys
	}
	r.idxs = r.idxs[:0]
	for i := 0; i < n; i++ {
		r.idxs = append(r.idxs, s.z.scrambled(&s.key))
	}
}

// data renders keys and values. Both are pure functions of (seed, record
// index), so any reply can be checked against what the last acknowledged
// Set of that key must have written, whichever client wrote it.
type data struct {
	seed uint64
	tag  [4]byte // seed-derived key infix: another seed, another key set
}

const keyLen = 20

func newData(seed uint64) *data {
	d := &data{seed: mix64(seed ^ 0x6b657973)}
	const hex = "0123456789abcdef"
	for i := range d.tag {
		d.tag[i] = hex[d.seed>>(4*i)&15]
	}
	return d
}

// key appends record idx's 20-byte key ("user" + tag + 12 digits) to dst.
// Distinct indices give distinct keys, so no two records share a value.
func (d *data) key(dst []byte, idx uint64) []byte {
	dst = append(dst, 'u', 's', 'e', 'r', d.tag[0], d.tag[1], d.tag[2], d.tag[3])
	var digits [12]byte
	for p := len(digits) - 1; p >= 0; p-- {
		digits[p] = byte('0' + idx%10)
		idx /= 10
	}
	return append(dst, digits[:]...)
}

// flags is the 32-bit client-flags word stored with record idx; replies
// are checked against it as well as against the value.
func (d *data) flags(idx uint64) uint32 { return uint32(mix64(d.seed + idx)) }

// value fills buf with record idx's payload.
func (d *data) value(buf []byte, idx uint64) {
	x := mix64(d.seed ^ idx*0x9e3779b97f4a7c15)
	for len(buf) >= 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf, x)
		buf = buf[8:]
	}
	for i := range buf {
		buf[i] = byte(x >> (8 * i))
	}
}
