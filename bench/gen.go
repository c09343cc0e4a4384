package main

import (
	"math/rand"
	"time"
)

// Every generated input comes from one *rand.Rand seeded from -seed and the
// workload name, so the same seed gives the same requests and the same
// arrival times; the servers only ever see the generated requests.

// newRNG derives the workload's generator from the run seed.
func newRNG(seed int64, workload string) *rand.Rand {
	h := int64(0)
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h))
}

// poissonSchedule returns n due times (offsets from the phase start) of a
// Poisson arrival process at rate arrivals per second.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// zipfExponent is the skew of every Zipf-distributed choice in the workloads.
const zipfExponent = 1.1

// newZipf returns a sampler of ranks in [0, n) with P(k) ∝ (1+k)^-1.1.
func newZipf(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, zipfExponent, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
