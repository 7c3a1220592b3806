package core

// Deterministic per-ant seed derivation.
//
// Every ant owns an independent generator (antRand, math/rand's stream)
// whose seed is a pure function of (master seed, tour number, ant index).
// Because no RNG stream is shared between ants — or between the colony
// and its ants — the layering an ant constructs depends only on those
// three values, never on which goroutine ran it or in what order the
// worker pool scheduled the colony. That is what makes a parallel run
// bitwise-identical to a sequential one at any Workers setting, and it
// also keeps early stopping seed-stable: skipping the tail of a run
// cannot shift the seeds of the tours that did execute.

// mix64 is the SplitMix64 finalizer (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014): a bijective 64-bit mixer
// with full avalanche, so inputs differing in a single bit map to
// statistically independent outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SubSeed derives the master seed of independent search stream `stream`
// (0-based) from a master seed — the same SplitMix64 discipline antSeed
// applies inside one colony, lifted one level up. The island model uses it
// to give every island a statistically independent colony seed that is a
// pure function of (master seed, island index), so an island run is
// reproducible and no two islands ever share an RNG stream with each other
// or with any single-colony run on the same master seed (the stream
// multiplier differs from both antSeed multipliers). The result is masked
// to 63 bits for the same seed-normalisation reason as antSeed.
func SubSeed(master int64, stream int) int64 {
	z := mix64(uint64(master) ^ 0xD1B54A32D192ED03*uint64(stream+1))
	return int64(z & (1<<63 - 1))
}

// antSeed derives the RNG seed of ant `ant` (0-based) in tour `tour`
// (1-based) of a run whose master seed is `master`. Each coordinate is
// spread over all 64 bits by a large odd multiplier before being absorbed,
// with a full mix between absorptions, so small (tour, ant) indices cannot
// cancel against each other and every pair receives an unrelated seed.
//
// The result seeds the ant's generator, antRand, and is masked to 63
// bits: its seeding (math/rand's) folds negative seeds through a
// Mersenne-prime reduction, and keeping the value non-negative sidesteps
// that sign-dependent aliasing.
func antSeed(master int64, tour, ant int) int64 {
	z := uint64(master)
	z = mix64(z ^ 0xA24BAED4963EE407*uint64(tour+1))
	z = mix64(z ^ 0x9FB21C651E98DF25*uint64(ant+1))
	return int64(z & (1<<63 - 1))
}
