package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 <= q <= 1), interpolating
// linearly between the two samples around rank q·(n−1), so that the
// median of an even count is the mean of the middle two. xs must be
// sorted ascending and non-empty.
func quantile(xs []float64, q float64) float64 {
	h := q * float64(len(xs)-1)
	i := int(h)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (h-float64(i))*(xs[i+1]-xs[i])
}

// tailLadder lists the percentiles the tail metrics may report, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie above a tail percentile's
// nearest rank, ceil(q·n), for the percentile to count as measured.
const minBeyond = 10

// tailQuantile picks the highest percentile of tailLadder that leaves
// at least minBeyond of n samples beyond its rank. With too few
// samples for any of them it returns 1, the maximum.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return q
		}
	}
	return 1
}

// summary is the median and tail percentile of one sample set.
type summary struct {
	n     int
	p50   float64
	tail  float64
	tailQ float64 // the percentile tail reports, chosen by tailQuantile
}

// summarize sorts a copy of xs and reads off the median and the tail
// percentile chosen by tailQuantile. An empty set summarises to zeros.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	return summary{n: len(s), p50: quantile(s, 0.5), tail: quantile(s, q), tailQ: q}
}

// median is summarize(xs).p50.
func median(xs []float64) float64 { return summarize(xs).p50 }
