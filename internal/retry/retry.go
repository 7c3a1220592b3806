// Package retry holds the daemon's two back-off models: the delay
// schedule a worker waits out between reconnect attempts and the
// Retry-After hint a saturated queue hands to the clients it rejects
// (the job queue, the cluster run queue).
package retry

import (
	"math"
	"time"
)

// Backoff is the delay before retry attempt k (0-based): base doubled k
// times, plus (k%5) sixteenths of that as a deterministic jitter — so a
// restarted fleet does not redial in lockstep, yet the exact schedule can
// be pinned by a test — capped at max.
func Backoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	d += time.Duration(attempt%5) * (d / 16)
	if d > max {
		d = max
	}
	return d
}

// AfterSeconds is the Retry-After hint, in whole seconds, for a queue
// with pending units of work (queued plus running) served by slots
// parallel servers at a mean of mean per unit: the time until the
// backlog drains, ceil(pending·mean/slots), clamped to [1, 30]. Fewer
// than one slot counts as one.
func AfterSeconds(pending, slots int, mean time.Duration) int {
	if slots < 1 {
		slots = 1
	}
	secs := int(math.Ceil(float64(pending) * mean.Seconds() / float64(slots)))
	return min(max(secs, 1), 30)
}
