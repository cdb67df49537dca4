package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{2560, 99}, // the herd's open loop: 25 samples beyond p99
		{1000, 99}, // exactly 10 beyond
		{999, 98},
		{30, 66}, // 10.2 beyond p66, 9.9 beyond p67
		{100, 90},
		{20, 50},
		{16, 50}, // below 20 samples the tail never drops under the median
		{1, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeNamesTheTail(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.tailPct != 66 || s.n != 30 {
		t.Fatalf("summary of 30 samples: p%d over %d, want p66 over 30", s.tailPct, s.n)
	}
	if s.p50 != 15.5 || s.tail <= s.p50 {
		t.Fatalf("p50 %v tail %v", s.p50, s.tail)
	}
}
