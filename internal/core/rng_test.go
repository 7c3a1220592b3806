package core

import (
	"math"
	"math/rand"
	"testing"
)

// randSeeds are the seeds the differential tests compare the two
// generators on: the edges of math/rand's seed normalisation (zero, the
// modulus and its neighbours, the 0 → 89482311 alias, both int64
// extremes) and 300 seeds the colony actually hands its ants.
func randSeeds() []int64 {
	seeds := []int64{0, 1, -1, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), 89482311, math.MinInt64, math.MaxInt64}
	for i := 0; i < 300; i++ {
		seeds = append(seeds, antSeed(int64(i*7919), 1+i%10, i%13))
	}
	return seeds
}

// intnBounds are the Intn arguments the interleaved comparison draws:
// powers of two (the masking path), small spans like a walk's, and
// values near 2^31−1 whose rejection loop runs often.
var intnBounds = []int32{1, 2, 3, 7, 8, 10, 60, 64, 100, 1 << 20, 1<<30 + 1, 1<<31 - 2, 1<<31 - 1}

// TestAntRandMatchesMathRand: the ant generator reproduces math/rand's
// stream bit for bit — raw outputs, Int31n against math/rand's Intn and
// Float64 interleaved, and reseeding mid-stream before and after the
// 334th output, where the lazily computed register words run out.
func TestAntRandMatchesMathRand(t *testing.T) {
	for _, s := range randSeeds() {
		want := rand.New(rand.NewSource(s))
		var got antRand
		got.Seed(s)
		for i := 0; i < 3000; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: output %d = %#x, want %#x", s, i, g, w)
			}
		}
		for _, reseedAt := range []int{0, 100, 333, 334, 335, 700} {
			want.Seed(s)
			got.Seed(s)
			for i := 0; i < 1200; i++ {
				if i == reseedAt {
					want.Seed(s + 1)
					got.Seed(s + 1)
				}
				if i%2 == 0 {
					k := intnBounds[(i/2)%len(intnBounds)]
					if g, w := int(got.Int31n(k)), want.Intn(int(k)); g != w {
						t.Fatalf("seed %d, reseed at %d: draw %d Intn(%d) = %d, want %d", s, reseedAt, i, k, g, w)
					}
				} else if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d, reseed at %d: draw %d Float64 = %v, want %v", s, reseedAt, i, g, w)
				}
			}
		}
	}
}

// FuzzAntRand replays a random program of draws and reseeds on both
// generators and requires identical results. Each op byte's low two bits
// pick the operation and its high six bits its argument: a run of up to
// 64 raw outputs (so a few ops cross output 334), a Float64, an Int31n
// over one of intnBounds against math/rand's Intn, or a reseed.
func FuzzAntRand(f *testing.F) {
	f.Add(int64(0), []byte{0xFC, 0xFC, 0xFC, 0xFC, 0xFC, 0xFC, 1, 2, 3})
	f.Add(int64(-1), []byte{2, 6, 10, 0x32, 0x36, 1, 3, 0xFC, 0xFC})
	f.Add(int64(1<<31-1), []byte{0xFC, 0xFC, 0xFC, 0xFC, 0xFC, 0xFC, 0x07, 0x30, 0x31})
	f.Add(int64(math.MinInt64), []byte{3, 0xFC, 0xFC, 0xFC, 0xFC, 0xFC, 0xFC, 0xFC, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		want := rand.New(rand.NewSource(seed))
		var got antRand
		got.Seed(seed)
		for i, op := range ops {
			arg := int(op >> 2)
			switch op & 3 {
			case 0:
				for j := 0; j <= arg; j++ {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("op %d: Uint64 = %#x, want %#x", i, g, w)
					}
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("op %d: Float64 = %v, want %v", i, g, w)
				}
			case 2:
				k := intnBounds[arg%len(intnBounds)]
				if g, w := int(got.Int31n(k)), want.Intn(int(k)); g != w {
					t.Fatalf("op %d: Intn(%d) = %d, want %d", i, k, g, w)
				}
			case 3:
				s := seed*31 + int64(arg)
				want.Seed(s)
				got.Seed(s)
			}
		}
	})
}
