package main

import (
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 50},    // too few for any percentile: the median
		{19, 50},   // p50 leaves 9 beyond: still the fallback
		{20, 50},   // p50 leaves exactly 10 beyond
		{39, 50},   // p75 would leave 9
		{40, 75},   // p75 leaves 10
		{99, 75},   // p90 would leave 9
		{100, 90},  // p90 leaves 10
		{200, 95},  // p95 leaves 10
		{999, 95},  // p99 would leave 9
		{1000, 99}, // p99 leaves 10
		{9999, 99}, // p99.9 would leave 9
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - rankOf(c.n, c.want); beyond < 10 {
				t.Errorf("n=%d: p%g leaves %d samples beyond, want >= 10", c.n, c.want, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	for q, want := range map[float64]time.Duration{50: 50, 90: 90, 99: 99, 99.9: 100, 0: 1} {
		if got := percentile(d, q); got != want*time.Millisecond {
			t.Errorf("p%g = %v, want %v", q, got, want*time.Millisecond)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestWindowTailIsMedianOfWindows(t *testing.T) {
	// 600 ops at p95 make three windows of 200. Each window's p95 is its
	// 190th smallest value; one window is slow throughout, and the median
	// ignores it.
	var lat []time.Duration
	for _, base := range []int{1000, 50, 2000} {
		for i := 1; i <= 200; i++ {
			lat = append(lat, time.Duration(base+i)*time.Microsecond)
		}
	}
	q, windows, got := windowTail(lat, 95)
	if q != 95 || windows != 3 || got != 1190*time.Microsecond {
		t.Errorf("windowTail = p%g over %d windows, %v; want p95 over 3 windows, 1.19ms", q, windows, got)
	}
	// Leftover ops join the last window, which still leaves ten beyond.
	if _, windows, _ := windowTail(lat[:599], 95); windows != 2 {
		t.Errorf("599 ops made %d windows, want 2", windows)
	}
	// Fewer ops than one window fall back to the whole-run ladder.
	if q, windows, got := windowTail(lat[:150], 95); q != 90 || windows != 1 || got != percentile(sortedCopy(lat[:150]), 90) {
		t.Errorf("150 ops: p%g over %d windows, %v; want the whole-run p90", q, windows, got)
	}
}
