package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond the reported
// tail percentile.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle
// values for an even count, and 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the highest percentile with tailBeyond of n samples
// beyond it: the one at nearest rank n-tailBeyond.
func tailPercentile(n int) float64 {
	return 100 * float64(n-tailBeyond) / float64(n)
}

// percentile returns the nearest-rank sample at percentile p: the
// smallest sample with at least p% of the samples at or below it; 0 for
// none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}
