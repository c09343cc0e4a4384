package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported; fewer and the value is one outlier's position, not a percentile.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs, which it sorts in
// place. It refuses when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	beyond := int(float64(n)*(1-p) + 1e-9)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	sort.Float64s(xs)
	return xs[n-1-beyond], nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), 0 for none. It sorts a copy.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method). It needs at
// least two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position of the k-th quartile
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	spread := (q(3) - q(1)) / m
	if spread < 0 {
		spread = -spread
	}
	return spread
}
