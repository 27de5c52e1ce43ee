package fdet

import "math/bits"

// stream is the arbitrary pre-stabilization output of one (seed, module,
// time): the splitmix64 finalizer over a counter, keyed by a hash of all
// three. A history stays a pure function of its arguments, a draw touches no
// shared state, and related seeds (a stress run's Seed·1 000 003 + r) give
// unrelated streams.
type stream struct{ key, ctr uint64 }

// noise returns the stream of module i at time t under seed.
func noise(seed int64, i int, t Time) stream {
	return stream{key: mix(mix(mix(uint64(seed))^uint64(i)) ^ uint64(t))}
}

// mix is splitmix64's finalizer, a bijection of uint64.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *stream) next() uint64 {
	s.ctr++
	return mix(s.key + s.ctr*0x9e3779b97f4a7c15)
}

// intn draws from [0, n), n > 0: the high word of a 64×64-bit product,
// biased by at most n/2⁶⁴.
func (s *stream) intn(n int) int {
	hi, _ := bits.Mul64(s.next(), uint64(n))
	return int(hi)
}

// perm draws a permutation of [0, n) (inside-out Fisher–Yates).
func (s *stream) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}
