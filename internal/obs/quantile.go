package obs

import (
	"math"
	"sort"
	"sync"
)

// Quantile is the nearest-rank q-quantile of an ascending sample: the
// ⌈q·n⌉-th smallest value (1-based), so p50 of an even sample is the
// lower middle and p100 the maximum. Every latency quantile the daemon,
// the scheduler and the chaos harness report goes through this one
// definition. An empty sample yields 0.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	return sorted[min(max(rank, 1), n)-1]
}

// Window is a fixed-size ring of the most recent samples, summarised by
// nearest-rank quantiles. Safe for concurrent use.
type Window struct {
	mu    sync.Mutex
	ring  []float64
	next  int
	count int64
}

// NewWindow returns a window retaining the last size samples.
func NewWindow(size int) *Window {
	return &Window{ring: make([]float64, 0, size)}
}

// Add records one sample, evicting the oldest once the window is full.
func (w *Window) Add(x float64) {
	w.mu.Lock()
	if len(w.ring) < cap(w.ring) {
		w.ring = append(w.ring, x)
	} else {
		w.ring[w.next] = x
		w.next = (w.next + 1) % len(w.ring)
	}
	w.count++
	w.mu.Unlock()
}

// Summary returns how many samples were ever added and the p50 and p99
// of those still retained.
func (w *Window) Summary() (count int64, p50, p99 float64) {
	w.mu.Lock()
	sorted := append([]float64(nil), w.ring...)
	count = w.count
	w.mu.Unlock()
	sort.Float64s(sorted)
	return count, Quantile(sorted, 0.50), Quantile(sorted, 0.99)
}
