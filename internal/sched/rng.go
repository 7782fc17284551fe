package sched

// Per-run RNG seeding is a fixed cost of every execution: math/rand's
// rngSource.Seed runs 1841 sequential Lehmer-LCG steps through Schrage's
// algorithm (~10.5µs), which dominates short executions and caps the
// steps/sec of every campaign that cycles seeds (one Seed per run). This
// file replaces the source behind the pooled *rand.Rand with fastSource,
// a bit-compatible reimplementation of math/rand's additive
// lagged-Fibonacci generator (Mitchell & Reeds) whose Seed is O(1).
//
// Register entry i depends on the seed only through the LCG steps
// 21+3i, 22+3i and 23+3i, i.e. through x·A^(21+3i+j) mod M for the
// seed's starting value x. An init-time jump table holds those three
// powers for every entry, so any entry can be computed on its own with
// three independent multiplications. Seed therefore only records x, and
// each draw fills the register slots it touches for the first time.
// Tap and feed walk down from 0 and 334, so the first touches follow a
// fixed order: draw k ≤ 273 first touches feed slot 334−k and tap slot
// 607−k; draws 274..334 first touch only the feed slot (their tap slots
// were fed at draw k−273); after draw 334 every slot is live. A run
// pays for the slots it draws, not for all 607.
//
// Bit-compatibility is a hard requirement — the schedule RNG determines
// every committed golden, witness and bench report — and is pinned by
// TestFastSourceMatchesStdlib plus the repo-wide golden suite. Seeding
// needs the stdlib's unexported rngCooked table; rather than embedding a
// 607-entry copy, init recovers it from math/rand itself by inverting
// 607 observed draws (see recoverCooked).

import "math/rand"

const (
	rngLen  = 607             // feedback register length
	rngTap  = 273             // additive-generator tap distance
	rngFeed = rngLen - rngTap // feed index after Seed
	rngMask = 1<<63 - 1       // Int63 truncation mask
	rngM31  = 1<<31 - 1       // Lehmer LCG modulus 2³¹−1 (prime)
	rngA    = 48271           // Lehmer LCG multiplier
)

// rngCooked is math/rand's seeding table, recovered at init.
var rngCooked [rngLen]int64

// rngJump[i] holds A^(21+3i), A^(22+3i) and A^(23+3i) mod M: the LCG
// steps register entry i consumes (the first entry consumes step 21:
// 20 warmup steps plus the loop-header step).
var rngJump [rngLen][3]uint64

// fastSource implements rand.Source64 with the exact output sequence of
// rand.NewSource(seed) for every seed.
type fastSource struct {
	x         uint64 // the seed's LCG starting value
	drawn     int    // draws since Seed, counted up to rngFeed (all slots live)
	tap, feed int
	vec       [rngLen]int64
}

// mulmod31 returns a·b mod 2³¹−1 for a, b < 2³¹−1. One fold
// (2³¹ ≡ 1 mod M) of the product, at most (M−1)², leaves a value below
// 2M−2, so one conditional subtract finishes the reduction.
func mulmod31(a, b uint64) uint64 {
	p := a * b
	p = (p >> 31) + (p & rngM31)
	if p >= rngM31 {
		p -= rngM31
	}
	return p
}

// seedInit maps an arbitrary int64 seed onto the LCG's starting value,
// exactly as rngSource.Seed does.
func seedInit(seed int64) uint64 {
	seed = seed % rngM31
	if seed < 0 {
		seed += rngM31
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// Seed resets the source to the state rngSource.Seed produces. It is
// O(1): the register is filled slot by slot as draws first touch it.
func (s *fastSource) Seed(seed int64) {
	s.x = seedInit(seed)
	s.drawn = 0
	s.tap = 0
	s.feed = rngFeed
}

// fill materializes the register slots draw k touches for the first
// time: feed slot rngFeed−k and, for k ≤ rngTap, tap slot rngLen−k
// (entry i = LCG word ^ rngCooked[i]). Draws call it for the first
// rngFeed draws only. The loop visits the feed slot, then the tap slot
// when there is one, so the entry formula is written (and inlined) once.
func (s *fastSource) fill() {
	s.drawn++
	k := s.drawn
	x := s.x
	for i := rngFeed - k; ; i = rngLen - k {
		j := &rngJump[i]
		s.vec[i] = int64(mulmod31(x, j[0])<<40^mulmod31(x, j[1])<<20^mulmod31(x, j[2])) ^ rngCooked[i]
		if i >= rngFeed || k > rngTap {
			return
		}
	}
}

// step is the additive generator's step, identical to
// rngSource.Uint64 once every slot it reads is live.
func (s *fastSource) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Uint64 matches rngSource.Uint64.
func (s *fastSource) Uint64() uint64 {
	if s.drawn < rngFeed {
		s.fill()
	}
	return s.step()
}

// Int63 matches rngSource.Int63. It repeats Uint64's lazy check rather
// than calling it: Uint64 does not fit the inlining budget, and
// math/rand draws through Int63, so this keeps its hot path one call
// deep.
func (s *fastSource) Int63() int64 {
	if s.drawn < rngFeed {
		s.fill()
	}
	return int64(s.step() & rngMask)
}

// recoverCooked reconstructs rngCooked from an observable stdlib source.
// After Seed the register holds v[i] = lcg(i) ^ cooked[i] with tap=0,
// feed=334, and draw k returns v[feed(k)] + v[tap(k)] while overwriting
// the feed slot. Slot i is fed (overwritten) at draw 334−i (i ≤ 333) and
// tapped at draw 607−i (i ≥ 273); a feed slot is always original, and a
// tapped slot is original exactly when it was never fed (i ≥ 334) or is
// tapped before its feed — which never happens, so overlapping slots
// 273..333 are tapped post-overwrite, holding a known earlier draw
// result. The system is therefore triangular over the original register:
//
//	v[606−j] = r[334+j] − r[61+j]          j = 0..272   (draws 335..607)
//	v[334−k] = r[k−1]   − v[607−k]         k = 1..273   (tap original)
//	v[334−k] = r[k−1]   − r[k−274]         k = 274..334 (tap = draw k−273)
//
// with all arithmetic wrapping like the generator's int64 addition.
// XORing off the LCG part for the probe seed leaves the cooked table.
func recoverCooked() {
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var r [rngLen]uint64
	for i := range r {
		r[i] = src.Uint64()
	}
	var v [rngLen]uint64
	for j := 0; j <= 272; j++ {
		v[606-j] = r[334+j] - r[61+j]
	}
	for k := 1; k <= 273; k++ {
		v[334-k] = r[k-1] - v[607-k]
	}
	for k := 274; k <= 334; k++ {
		v[334-k] = r[k-1] - r[k-274]
	}
	// With rngCooked still zero, filling a probe-seeded source leaves
	// the bare LCG part of every entry in its register.
	var lcg fastSource
	lcg.Seed(probe)
	for lcg.drawn < rngFeed {
		lcg.fill()
	}
	for i := range rngCooked {
		rngCooked[i] = int64(v[i]) ^ lcg.vec[i]
	}
}

func init() {
	p := uint64(1)
	for i := 0; i < 21; i++ {
		p = mulmod31(p, rngA)
	}
	for i := range rngJump {
		for j := range rngJump[i] {
			rngJump[i][j] = p
			p = mulmod31(p, rngA)
		}
	}
	recoverCooked()
}
