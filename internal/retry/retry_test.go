package retry

import (
	"testing"
	"time"
)

// TestBackoffSchedule pins the worker-reconnect schedule: doubling from
// base with deterministic jitter, capped at max.
func TestBackoffSchedule(t *testing.T) {
	base, max := 100*time.Millisecond, 5*time.Second
	want := []time.Duration{
		100 * time.Millisecond,    // attempt 0: base, no jitter
		212500 * time.Microsecond, // attempt 1: 200ms + 1/16
		450 * time.Millisecond,    // attempt 2: 400ms + 2/16
		950 * time.Millisecond,    // attempt 3: 800ms + 3/16
		2000 * time.Millisecond,   // attempt 4: 1600ms + 4/16
		3200 * time.Millisecond,   // attempt 5: jitter index wraps to 0
		5 * time.Second,           // attempt 6: capped
	}
	for k, w := range want {
		if got := Backoff(base, max, k); got != w {
			t.Errorf("attempt %d backoff = %s, want %s", k, got, w)
		}
	}
}

func TestAfterSeconds(t *testing.T) {
	cases := []struct {
		pending, slots int
		mean           time.Duration
		want           int
	}{
		{0, 4, time.Second, 1},                       // idle: immediate retry
		{6, 2, time.Second, 3},                       // ceil(6/2)
		{7, 2, time.Second, 4},                       // remainder rounds up
		{3, 0, time.Second, 3},                       // no slots counts as one
		{5, 2, 100 * time.Millisecond, 1},            // fast runs: under a second
		{5, 2, 3 * time.Second, 8},                   // ceil(15/2)
		{500, 4, time.Second, 30},                    // deep backlog clamps at 30s
		{1, 1, 90 * time.Second, 30},                 // one slow run clamps too
		{4, 3, 1500 * time.Millisecond, 2},           // ceil(6/3)
		{10, 4, 250 * time.Millisecond, 1},           // ceil(0.625)
		{9, 2, 2*time.Second + time.Millisecond, 10}, // ceil(9.0045)
	}
	for _, c := range cases {
		if got := AfterSeconds(c.pending, c.slots, c.mean); got != c.want {
			t.Errorf("AfterSeconds(%d, %d, %s) = %d, want %d", c.pending, c.slots, c.mean, got, c.want)
		}
	}
}
