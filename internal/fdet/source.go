package fdet

// lazySource is a rand.Source64 whose output for every seed is, bit for
// bit, the stream of math/rand's rand.NewSource(seed), but whose Seed costs
// O(1) instead of ≈ 14 µs.
//
// The standard source is an additive lagged Fibonacci generator over 607
// words: each draw adds the word at tap to the word at feed, stores the sum
// at feed and returns it. Seeding fills all 607 words up front. Word i is
// three consecutive draws of the Lehmer generator x ← 48271·x mod (2³¹−1),
// started at the seed and advanced 21 + 3i times, XORed with rngCooked[i].
// A history query draws a handful of words, so lazySource computes word i
// only when a draw first reads it, jumping straight to its Lehmer draws
// with lehmerPow. Each word carries the generation of the seed that filled
// it, so Seed bumps the generation and clears nothing. Seed before the
// first draw.
type lazySource struct {
	tap, feed int
	x0        uint64 // the normalised seed, the Lehmer generator's start
	gen       uint64 // bumped by Seed; a word stamped otherwise is unfilled
	vec       [rngLen]struct {
		v   int64
		gen uint64
	}
}

const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

// lehmerPow[i] is 48271^(21+3i) mod 2³¹−1: the multiplier that takes the
// seed to the first of word i's three Lehmer draws.
var lehmerPow = func() (pow [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * lehmerA % lehmerM
	}
	for i := range pow {
		pow[i] = x
		x = x * lehmerA % lehmerM * lehmerA % lehmerM * lehmerA % lehmerM
	}
	return pow
}()

// Seed implements rand.Source, normalising the seed as math/rand does.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.gen++
	s.tap, s.feed = 0, rngLen-rngTap
}

// word returns state word i, computing it if this seed has not yet.
func (s *lazySource) word(i int) int64 {
	w := &s.vec[i]
	if w.gen == s.gen {
		return w.v
	}
	x := s.x0 * lehmerPow[i] % lehmerM
	u := int64(x) << 40
	x = x * lehmerA % lehmerM
	u ^= int64(x) << 20
	x = x * lehmerA % lehmerM
	u ^= int64(x) ^ rngCooked[i]
	w.v, w.gen = u, s.gen
	return u
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed].v = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
