package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to mean anything: a p95 over 100 samples is decided by
// five of them.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples
// that are already sorted ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// beyond counts the samples ranked strictly after the nearest-rank
// p-quantile of n samples.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// highestSupported returns the highest percentile of the ladder that has at
// least minBeyond samples beyond it among n samples, or 0 when even the
// median has fewer.
func highestSupported(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// median returns the middle of samples (mean of the two middles for an
// even count) without reordering the caller's slice.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// geomeanOfMedians is the geometric mean, over templates, of each
// template's median: every template weighs the same however often it ran,
// as in the TPC-H power test. Templates without samples are skipped.
func geomeanOfMedians(byTemplate map[string][]float64) float64 {
	var logSum float64
	n := 0
	for _, samples := range byTemplate {
		if len(samples) == 0 {
			continue
		}
		m := median(samples)
		if m <= 0 {
			continue
		}
		logSum += math.Log(m)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// intervalUnion returns the total length covered by a set of [start, end)
// intervals.
func intervalUnion(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	cs, ce := s[0][0], s[0][1]
	for _, x := range s[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
			continue
		}
		if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}
