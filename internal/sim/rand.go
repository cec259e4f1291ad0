package sim

import "math/rand"

// Rand wraps a seeded math/rand source with the convenience draws the
// network substrate needs. Every experiment creates its own Rand from an
// explicit seed, so a run is fully determined by (code, seed).
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.r.Float64() < p
}

// Intn returns a uniform int in [0,n). n must be > 0.
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (r *Rand) Int63() int64 { return r.r.Int63() }

// Uint64 returns a uniform uint64.
func (r *Rand) Uint64() uint64 { return r.r.Uint64() }

// Float64 returns a uniform float64 in [0,1).
func (r *Rand) Float64() float64 { return r.r.Float64() }
