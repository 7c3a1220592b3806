package core

import "math/rand"

// antRand is the ant's random number generator: math/rand's additive
// lagged-Fibonacci source with its Int31n and Float64, reproduced output
// for output, except that seeding takes O(1) instead of rebuilding the
// 607-word register.
//
// math/rand seeds the register by running the Park–Miller LCG
// x_{k+1} = 48271·x_k mod (2^31−1) for 1841 serial steps from the seed:
// word i is (x_{21+3i}<<40) ^ (x_{22+3i}<<20) ^ x_{23+3i} ^ rngCooked[i].
// The LCG jumps ahead (Park & Miller, "Random number generators: good
// ones are hard to find", CACM 1988): x_k = 48271^k·x_0 mod (2^31−1), so
// with the multipliers tabulated in seedMul every word is three
// independent multiply-and-fold steps. Seed stores x_0 and computes no
// word; words are computed the first time the stream reads them. Output
// k (1-based) first reads feed word 334−k and, while k ≤ 273, tap word
// 607−k, so fill computes those a block of outputs ahead. After 334
// outputs every word has been computed and Uint64 is math/rand's
// rngSource.Uint64 verbatim. A walk over n vertices draws n values for
// its visiting order and at most two per layer decision, so a walk over
// fewer than 100 vertices never computes the whole register.
type antRand struct {
	x0        uint64 // the normalised seed: x_0 of the seeding LCG
	tap, feed int
	// lazy is the lowest feed index whose word is computed; words below
	// it (and their tap partners) are still pending. 0 once all are.
	lazy int
	vec  [rngLen]int64
}

const (
	rngLen   = 607 // register length of math/rand's source
	rngTap   = 273 // lag of its second tap
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seeding LCG's modulus, a Mersenne prime
	// fillBlock is how many outputs ahead fill computes register words:
	// the pending check costs one predictable branch per draw.
	fillBlock = 16
)

var (
	// seedMul[i][j] is 48271^(21+3i+j) mod (2^31−1): the jump from x_0
	// to the LCG state word i reads in its j-th part.
	seedMul [rngLen][3]uint32
	// rngCooked is math/rand's rngCooked: the per-word constant its
	// seeding XORs in. It is derived from math/rand itself at init.
	rngCooked [rngLen]int64
)

func init() {
	m := uint64(1)
	for k := 1; k <= 20; k++ {
		m = mulMod(m, 48271)
	}
	for i := range seedMul {
		for j := range seedMul[i] {
			m = mulMod(m, 48271)
			seedMul[i][j] = uint32(m)
		}
	}
	// A fresh source writes output k into the feed slot it reads, and
	// over 607 outputs feed visits every slot once. Place seed 1's first
	// 607 outputs at those slots, undo the additions newest first (the
	// tap slot of output k still holds the value output k read), and the
	// register is back at seed 1's initial words; XORing out the LCG
	// part leaves rngCooked.
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	for k := 1; k <= rngLen; k++ {
		vec[feedSlot(k)] = int64(src.Uint64())
	}
	for k := rngLen; k >= 1; k-- {
		vec[feedSlot(k)] -= vec[(feedSlot(k)+rngTap)%rngLen]
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

// feedSlot is the register index output k (1-based) of a freshly seeded
// source reads and writes; its tap slot lies rngTap above, mod rngLen.
func feedSlot(k int) int {
	return ((rngLen-rngTap-k)%rngLen + rngLen) % rngLen
}

// mulMod returns a·b mod (2^31−1) for a, b < 2^31, folding the 62-bit
// product at the Mersenne modulus instead of dividing.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// lcgWord is the LCG part of register word i for the normalised seed x0.
func lcgWord(x0 uint64, i int) int64 {
	m := &seedMul[i]
	return int64(mulMod(uint64(m[0]), x0)<<40 ^ mulMod(uint64(m[1]), x0)<<20 ^ mulMod(uint64(m[2]), x0))
}

// Seed normalises s exactly as math/rand does — reduced mod 2^31−1,
// negatives folded, 0 mapped to 89482311 — and rewinds the stream. It
// computes no register word.
func (r *antRand) Seed(s int64) {
	s %= int32max
	if s < 0 {
		s += int32max
	}
	if s == 0 {
		s = 89482311
	}
	r.x0 = uint64(s)
	r.tap, r.feed = 0, rngLen-rngTap
	r.lazy = r.feed
}

// fill computes the words the next fillBlock outputs read first: the
// feed words [lazy−fillBlock, lazy) and, where they lie in the tap half
// [334, 607), their tap partners rngTap above.
func (r *antRand) fill() {
	lo := max(r.lazy-fillBlock, 0)
	for i := lo; i < r.lazy; i++ {
		r.vec[i] = lcgWord(r.x0, i) ^ rngCooked[i]
		if j := i + rngTap; j >= rngLen-rngTap {
			r.vec[j] = lcgWord(r.x0, j) ^ rngCooked[j]
		}
	}
	r.lazy = lo
}

// Uint64 is math/rand's rngSource.Uint64 plus the pending-word check.
func (r *antRand) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	if r.feed < r.lazy {
		r.fill()
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value, as math/rand's Int63.
func (r *antRand) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Int31n returns a value in [0, n) by math/rand's Int31n, which is also
// what its Intn does for every n ≤ 2^31−1: a mask for a power of two,
// rejection sampling otherwise. It panics if n ≤ 0.
func (r *antRand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return int32(r.Int63()>>32) & (n - 1)
	}
	limit := int32(int32max - (1<<31)%uint32(n))
	v := int32(r.Int63() >> 32)
	for v > limit {
		v = int32(r.Int63() >> 32)
	}
	return v % n
}

// Float64 returns a value in [0, 1) by math/rand's Float64, resampling
// the rare Int63 whose quotient rounds up to 1.
func (r *antRand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}
