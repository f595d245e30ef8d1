package main

import "testing"

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{20, 0.50, 10, 10, true},
		{19, 0.50, 10, 9, false},
		{1, 0.99, 1, 0, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[tc.n-1-i] = float64(i + 1) // unsorted on purpose
		}
		got := percentile(xs, tc.p)
		if got.Value != tc.value || got.N != tc.n || got.Beyond != tc.beyond || got.ok() != tc.ok {
			t.Errorf("n=%d p=%v: got %+v ok=%v, want value %v beyond %d ok=%v",
				tc.n, tc.p, got, got.ok(), tc.value, tc.beyond, tc.ok)
		}
	}
	if got := percentile(nil, 0.5); got.N != 0 || got.ok() {
		t.Errorf("no samples: %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}
