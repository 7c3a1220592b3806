package obs

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 0.50, 3},
		{[]float64{1, 2, 3, 4, 5}, 0.99, 5},
		{nil, 0.50, 0},
		{[]float64{7}, 0, 7},
		{[]float64{7}, 0.50, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2}, 0.50, 1}, // the lower middle, not an interpolation
		{[]float64{1, 2}, 0.51, 2},
		{[]float64{1, 2}, 1, 2},
		{hundred, 0.50, 50}, // ⌈50⌉-th smallest
		{hundred, 0.95, 95},
		{hundred, 0.99, 99}, // not the maximum: q·n is an exact rank
		{hundred, 0.991, 100},
		{hundred, 1, 100},
		{hundred, 0, 1},
	}
	for _, c := range cases {
		if got := Quantile(c.sorted, c.q); got != c.want {
			t.Errorf("Quantile(q=%g) of %d values = %g, want %g", c.q, len(c.sorted), got, c.want)
		}
	}
}

func TestWindowKeepsTheMostRecent(t *testing.T) {
	w := NewWindow(4)
	if n, p50, p99 := w.Summary(); n != 0 || p50 != 0 || p99 != 0 {
		t.Fatalf("empty window = (%d, %g, %g), want zeros", n, p50, p99)
	}
	for _, x := range []float64{100, 200, 4, 3, 2, 1} {
		w.Add(x)
	}
	// 100 and 200 were evicted: the window holds 4, 3, 2, 1.
	n, p50, p99 := w.Summary()
	if n != 6 || p50 != 2 || p99 != 4 {
		t.Errorf("Summary() = (%d, %g, %g), want (6, 2, 4)", n, p50, p99)
	}
}
