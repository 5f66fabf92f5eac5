package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles latency_tail_ms may report, highest
// first. A fixed ladder keeps the chosen percentile the same from run to
// run while the sample count only drifts a little.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank q-th percentile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)-1]
}

// rankOf is the 1-based nearest rank of the q-th percentile among n samples.
func rankOf(n int, q float64) int {
	k := int(math.Ceil(q * float64(n) / 100))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile picks the highest ladder percentile that leaves at least
// ten samples beyond it. When no percentile qualifies (fewer than 20
// samples), it falls back to the median.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if n-rankOf(n, q) >= 10 {
			return q
		}
	}
	return 50
}

// windowTail is latency_tail_ms: the median, over consecutive windows of
// the ops in the order they ran, of each window's q-th percentile. A window
// holds 10/(1-q/100) ops, just enough to leave ten samples beyond q; the
// last one also takes the ops left over. A host stall that slows part of a
// run then moves the windows it hits, not the median. With fewer ops than
// one window, it returns the tailPercentile of all ops instead. It reports
// the percentile used and the number of windows.
func windowTail(lat []time.Duration, q float64) (float64, int, time.Duration) {
	w := int(math.Round(10 / (1 - q/100)))
	n := len(lat)
	if n < w {
		q = tailPercentile(n)
		return q, 1, percentile(sortedCopy(lat), q)
	}
	k := n / w
	vals := make([]float64, k)
	for i := range vals {
		end := (i + 1) * w
		if i == k-1 {
			end = n
		}
		vals[i] = float64(percentile(sortedCopy(lat[i*w:end]), q))
	}
	return q, k, time.Duration(medianFloat(vals))
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianFloat returns the median of xs (0 for none).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20
