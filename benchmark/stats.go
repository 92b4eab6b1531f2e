package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted values by
// the nearest-rank rule: the smallest value with at least p percent of the
// samples at or below it. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median sorts a copy of values and returns the middle one, or the mean of
// the middle two.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// perSecond is the completion rate in each whole second of a window but
// the first and the last, where clients start and stop. A second's rate is
// the completions that fall in it over the time from the last completion
// before it to the last one in it: whole requests over the time they took,
// so a workload of 25 requests a second does not read 25 or 26 depending on
// where the boundaries fall. With the median taken over these rates one
// stolen second cannot move the result. The samples must be in completion
// order.
func perSecond(samples []sample, seconds int) []float64 {
	if seconds < 3 {
		return nil
	}
	rates := make([]float64, 0, seconds-2)
	i := 0
	for i < len(samples) && samples[i].done < 1e9 {
		i++
	}
	for sec := 1; sec < seconds-1; sec++ {
		from := int64(sec) * 1e9 // where no completion precedes the second, its start
		if i > 0 {
			from = samples[i-1].done
		}
		n := 0
		for i < len(samples) && samples[i].done < int64(sec+1)*1e9 {
			i++
			n++
		}
		if n == 0 {
			rates = append(rates, 0)
			continue
		}
		rates = append(rates, float64(n)/(float64(samples[i-1].done-from)/1e9))
	}
	return rates
}

// variation is the coefficient of variation: standard deviation over mean.
func variation(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	if mean == 0 {
		return 0
	}
	var sq float64
	for _, v := range values {
		sq += (v - mean) * (v - mean)
	}
	return math.Sqrt(sq/float64(len(values))) / mean
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (its default, exclusive method).
// It needs at least two values.
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 quantiles
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / med
}

// worstDeviation is the largest relative distance of any value from the
// median of its set.
func worstDeviation(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	worst := 0.0
	for _, v := range values {
		worst = math.Max(worst, math.Abs(v-med)/med)
	}
	return worst
}

// deriveBound turns the worst single-run deviation seen in an A/A run into
// a regression bound: twice the deviation, at least 0.05, rounded up to a
// hundredth.
func deriveBound(worst float64) float64 {
	b := math.Max(0.05, 2*worst)
	return math.Ceil(b*100-1e-9) / 100
}

// worseBy is how much worse b is than a, as a share of a; negative when b
// is better.
func worseBy(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherIsBetter {
		return (a - b) / a
	}
	return (b - a) / a
}
