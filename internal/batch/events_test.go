package batch

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// collectUntilTerminal reads a subscription until it returns a
// terminal-state event for the given job (or the wait context dies). A
// gap fails the test: these subscriptions always keep up.
func collectUntilTerminal(t *testing.T, ctx context.Context, sub *Subscription, jobID string) []Event {
	t.Helper()
	var events []Event
	for {
		evs, _, gap := sub.Read()
		if gap {
			t.Fatalf("gap before %s turned terminal (got %v)", jobID, events)
		}
		for _, ev := range evs {
			events = append(events, ev)
			if ev.JobID == jobID && ev.State.Terminal() {
				return events
			}
		}
		select {
		case <-sub.Ready():
		case <-ctx.Done():
			t.Fatalf("no terminal event for %s (got %v)", jobID, events)
		}
	}
}

// TestEventsLifecycleOrder pins the core push contract: a per-job
// subscriber observes queued → running → done exactly once, in order,
// with strictly increasing sequence numbers.
func TestEventsLifecycleOrder(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	// Subscribing to everything before submission catches the queued
	// event; the job filter is checked separately below.
	sub := q.Events().Subscribe("", "", 0)
	defer sub.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("x"), nil })
	if err != nil {
		t.Fatal(err)
	}
	events := collectUntilTerminal(t, waitCtx(t), sub, j.ID())
	want := []State{StateQueued, StateRunning, StateDone}
	if len(events) != len(want) {
		t.Fatalf("got %d events %v, want states %v", len(events), events, want)
	}
	var lastSeq uint64
	for i, ev := range events {
		if ev.State != want[i] || ev.JobID != j.ID() {
			t.Fatalf("event %d = %+v, want state %s for %s", i, ev, want[i], j.ID())
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
}

// TestEventsFailedCarriesReason: a failing job publishes a failed event
// with the error text, and a cancelled one is additionally marked.
func TestEventsFailedCarriesReason(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	sub := q.Events().Subscribe("", "", 0)
	defer sub.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, fmt.Errorf("boom") })
	if err != nil {
		t.Fatal(err)
	}
	events := collectUntilTerminal(t, waitCtx(t), sub, j.ID())
	last := events[len(events)-1]
	if last.State != StateFailed || last.Error != "boom" || last.Canceled {
		t.Fatalf("failed event = %+v", last)
	}

	started := make(chan struct{})
	jc, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	q.Cancel(jc.ID())
	events = collectUntilTerminal(t, waitCtx(t), sub, jc.ID())
	last = events[len(events)-1]
	if last.State != StateFailed || !last.Canceled {
		t.Fatalf("cancelled event = %+v", last)
	}
}

// TestEventsTopicFilter: a topic subscription sees exactly the jobs
// labelled with its topic, and events carry the labels.
func TestEventsTopicFilter(t *testing.T) {
	q := New(Config{Workers: 2})
	defer q.Close()
	sub := q.Events().Subscribe("", "red", 0)
	defer sub.Close()
	fn := func(context.Context) ([]byte, error) { return nil, nil }
	red, err := q.SubmitTraced(fn, "", nil, "red", "hot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitTraced(fn, "", nil, "blue"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(fn); err != nil {
		t.Fatal(err)
	}
	events := collectUntilTerminal(t, waitCtx(t), sub, red.ID())
	for _, ev := range events {
		if ev.JobID != red.ID() {
			t.Fatalf("topic=red stream leaked event for %s: %+v", ev.JobID, ev)
		}
		if len(ev.Labels) != 2 || ev.Labels[0] != "red" || ev.Labels[1] != "hot" {
			t.Fatalf("event labels = %v, want [red hot]", ev.Labels)
		}
	}
	if snap := red.Snapshot(); len(snap.Labels) != 2 || snap.Labels[0] != "red" {
		t.Fatalf("snapshot labels = %v", snap.Labels)
	}
}

// TestEventsIdleSubscriberNeverBlocksPublish pins the publisher side
// under -race: a subscription that never reads while many jobs flow
// never blocks the queue, its doorbell stays rung, and its one read
// afterwards returns every event, in order, without a gap.
func TestEventsIdleSubscriberNeverBlocksPublish(t *testing.T) {
	q := New(Config{Workers: 4, Depth: 64})
	defer q.Close()
	sub := q.Events().Subscribe("", "", 0)
	defer sub.Close()
	const jobs = 20
	runJobs(t, q, jobs)
	select {
	case <-sub.Ready():
	default:
		t.Fatal("doorbell not rung after 20 jobs")
	}
	evs, _, gap := sub.Read()
	if gap || len(evs) != 3*jobs {
		t.Fatalf("read %d events (gap %v), want %d without a gap", len(evs), gap, 3*jobs)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i)+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs, _, gap := sub.Read(); len(evs) != 0 || gap {
		t.Fatalf("second read returned %d events (gap %v), want none", len(evs), gap)
	}
}

// runJobs submits n no-op jobs with the given labels and waits for each.
func runJobs(t *testing.T, q *Queue, n int, labels ...string) {
	t.Helper()
	for i := 0; i < n; i++ {
		j, err := q.SubmitTraced(func(context.Context) ([]byte, error) { return nil, nil }, "", nil, labels...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEventsGapWhenRingCyclesUnread: a subscription that does not read
// while the ring cycles past its matching events reports a gap on its
// next read, gets what the ring still holds, and reads on without one.
// A resume id older than the ring reports a gap on the first read; one
// past the newest seq reports nothing, the largest seq included.
func TestEventsGapWhenRingCyclesUnread(t *testing.T) {
	q := New(Config{Workers: 1, EventRing: 4})
	defer q.Close()
	sub := q.Events().Subscribe("", "red", 0)
	defer sub.Close()
	runJobs(t, q, 1, "red")
	runJobs(t, q, 2, "blue")
	evs, oldest, gap := sub.Read()
	if !gap || len(evs) != 0 || oldest != 6 {
		t.Fatalf("read %v, oldest %d, gap %v; want a gap, nothing, oldest 6", evs, oldest, gap)
	}
	runJobs(t, q, 1, "red")
	if evs, _, gap = sub.Read(); gap || len(evs) != 3 || evs[0].Seq != 10 {
		t.Fatalf("read %v (gap %v), want seqs 10-12 without a gap", evs, gap)
	}

	resume := q.Events().Subscribe("", "", 3)
	defer resume.Close()
	if evs, oldest, gap := resume.Read(); !gap || oldest != 9 || len(evs) != 4 {
		t.Fatalf("resume at 3 read %d events, oldest %d, gap %v; want 4, 9, a gap", len(evs), oldest, gap)
	}
	for _, after := range []uint64{8, 12, 99, math.MaxUint64} {
		resume := q.Events().Subscribe("", "", after)
		evs, _, gap := resume.Read()
		resume.Close()
		if gap || len(evs) != int(12-min(after, 12)) {
			t.Fatalf("resume at %d read %d events (gap %v)", after, len(evs), gap)
		}
	}
}

// TestEventsQuietJobSubscriptionNoGap: a per-job subscription that has
// read its job's events so far loses nothing while other jobs cycle the
// ring: its next read has no gap and carries the terminal event.
func TestEventsQuietJobSubscriptionNoGap(t *testing.T) {
	q := New(Config{Workers: 2, EventRing: 4})
	defer q.Close()
	started, release := make(chan struct{}), make(chan struct{})
	j, err := q.Submit(func(context.Context) ([]byte, error) { close(started); <-release; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	sub := q.Events().Subscribe(j.ID(), "", 0)
	defer sub.Close()
	<-started // running is published before the job runs
	if evs, _, gap := sub.Read(); gap || len(evs) != 2 {
		t.Fatalf("read %v (gap %v), want queued and running", evs, gap)
	}
	runJobs(t, q, 5)
	close(release)
	if _, err := j.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	evs, _, gap := sub.Read()
	if gap || len(evs) != 1 || evs[0].State != StateDone {
		t.Fatalf("read %v (gap %v), want the done event without a gap", evs, gap)
	}
}

// TestEventsRingBound: the ring is bounded — old events fall off and a
// read reports where coverage starts.
func TestEventsRingBound(t *testing.T) {
	q := New(Config{Workers: 1, EventRing: 8})
	defer q.Close()
	for i := 0; i < 10; i++ {
		j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Events().Stats()
	if st.RingLen != 8 {
		t.Fatalf("ring holds %d events, want 8", st.RingLen)
	}
	sub := q.Events().Subscribe("", "", 0)
	defer sub.Close()
	got, oldest, _ := sub.Read()
	if oldest != st.LastSeq-7 {
		t.Fatalf("oldest retained %d, want %d", oldest, st.LastSeq-7)
	}
	if len(got) != 8 || got[0].Seq != oldest {
		t.Fatalf("full replay returned %d events from %d", len(got), got[0].Seq)
	}
}

// TestEventsSubscriptionCloseAndQueueClose: closing a subscription
// detaches it (twice is fine); closing the queue leaves the ring
// readable, so a subscription taken after Close still reads the past.
func TestEventsSubscriptionCloseAndQueueClose(t *testing.T) {
	q := New(Config{Workers: 1})
	sub := q.Events().Subscribe("", "", 0)
	sub.Close()
	sub.Close() // idempotent
	if st := q.Events().Stats(); st.Subscribers != 0 {
		t.Fatalf("%d subscribers after Close", st.Subscribers)
	}
	runJobs(t, q, 1)
	q.Close()
	late := q.Events().Subscribe("", "", 0)
	defer late.Close()
	if evs, _, gap := late.Read(); gap || len(evs) != 3 {
		t.Fatalf("post-Close read %d events (gap %v), want 3", len(evs), gap)
	}
}

// BenchmarkPublish measures the publish hot path — sequence assignment,
// ring store and the doorbells of four matching subscriptions that never
// read (a rung doorbell stays rung).
func BenchmarkPublish(b *testing.B) {
	e := newEvents(1024)
	for i := 0; i < 4; i++ {
		e.Subscribe("", "", 0)
	}
	ev := Event{JobID: "j000001", State: StateRunning, Labels: []string{"bench"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.publish(ev)
	}
}
