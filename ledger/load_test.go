package main

import (
	"testing"
	"time"
)

func TestWindowStatsAreMediansOverWindows(t *testing.T) {
	p := phase{
		window: 500 * time.Millisecond,
		windows: [][]float64{
			{1, 2, 3, 4},
			{2, 4, 6},
			{}, // a stalled window: no answers, throughput 0
			{10, 20},
			{1, 1, 1, 1, 100},
		},
		cpuMS: []float64{0, 8, 14, 14, 18, 28},
	}
	rps, p50, p90, cpu := p.windowStats()
	// Throughput per window: 8, 6, 0, 4, 10 → median 6.
	if rps != 6 {
		t.Errorf("rps = %g, want 6", rps)
	}
	// p50 per answered window: 2, 4, 10, 1 → nearest-rank median 2.
	if p50 != 2 {
		t.Errorf("p50 = %g, want 2", p50)
	}
	// p90 per answered window: 4, 6, 20, 100 → 6.
	if p90 != 6 {
		t.Errorf("p90 = %g, want 6", p90)
	}
	// CPU per answer: 8/4, 6/3, 4/2, 10/5 = 2 each.
	if cpu != 2 {
		t.Errorf("cpu per answer = %g, want 2", cpu)
	}
}
