package main

import "testing"

func TestPercentileIsNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{ten(), 0.50, 5}, // ceil(5) = 5th smallest: the lower middle
		{ten(), 0.90, 9},
		{ten(), 0.91, 10}, // ceil(9.1) = 10th
		{ten(), 0.99, 10},
		{ten(), 0.10, 1},
		{ten(), 0, 1},
		{[]float64{4, 2, 3}, 0.5, 3}, // ceil(1.5) = 2nd
		{[]float64{42}, 0.99, 42},
		{nil, 0.5, 0},
	} {
		if got := percentile(tc.xs, tc.q); got != tc.want {
			t.Errorf("percentile(q=%g) of %d values = %g, want %g", tc.q, len(tc.xs), got, tc.want)
		}
	}
}

// The wanted values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3, 9.5, 7.25}, 2, 4, 7.25},
	} {
		q1, med, q3 := quartiles(append([]float64(nil), tc.xs...))
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}
