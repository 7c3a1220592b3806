package batch

import (
	"context"
	"testing"
	"time"
)

// TestEventsLastSeqAndDone covers the cursor a poller reads from Stats to
// bootstrap a ?after= resume, and the Job.Done channel the bulk-intake
// waiters select on.
func TestEventsLastSeqAndDone(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	if got := q.Events().Stats().LastSeq; got != 0 {
		t.Fatalf("LastSeq before any event = %d, want 0", got)
	}
	j, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("x"), nil })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job never finished")
	}
	// queued, running, done — three transitions, whatever their global
	// sequence numbers, leave the cursor at the last one.
	if got := q.Events().Stats().LastSeq; got < 3 {
		t.Fatalf("LastSeq after lifecycle = %d, want >= 3", got)
	}
	if snap := j.Snapshot(); snap.State != StateDone {
		t.Fatalf("state after Done closed = %s, want done", snap.State)
	}
}
