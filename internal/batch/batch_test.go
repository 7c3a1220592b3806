package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCtx bounds every test wait so a deadlock fails fast instead of
// hanging the suite.
func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitRunsToDone(t *testing.T) {
	q := New(Config{Workers: 2})
	defer q.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("out"), nil })
	if err != nil {
		t.Fatal(err)
	}
	snap, err := j.Wait(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateDone || string(snap.Result) != "out" || snap.Err != nil {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap.Started.Before(snap.Submitted) || snap.Finished.Before(snap.Started) {
		t.Fatalf("timestamps out of order: %+v", snap)
	}
	got, ok := q.Get(j.ID())
	if !ok || got != j {
		t.Fatal("Get lost the job")
	}
	st := q.Stats()
	if st.Submitted != 1 || st.Done != 1 || st.Failed != 0 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFailedJobKeepsError(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	boom := errors.New("boom")
	j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := j.Wait(waitCtx(t))
	if snap.State != StateFailed || !errors.Is(snap.Err, boom) || snap.Canceled {
		t.Fatalf("snapshot: %+v", snap)
	}
	if st := q.Stats(); st.Failed != 1 || st.Canceled != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestQueueFull(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 1})
	defer q.Close()
	block := make(chan struct{})
	running := make(chan struct{})
	// One job occupies the worker, one fills the backlog.
	first, err := q.Submit(func(context.Context) ([]byte, error) {
		close(running)
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	second, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if st := q.Stats(); st.Rejected != 1 || st.Queued != 1 || st.Running != 1 {
		t.Fatalf("stats: %+v", st)
	}
	close(block)
	if snap, _ := first.Wait(waitCtx(t)); snap.State != StateDone {
		t.Fatalf("first: %+v", snap)
	}
	if snap, _ := second.Wait(waitCtx(t)); snap.State != StateDone {
		t.Fatalf("second: %+v", snap)
	}
	// Capacity is free again.
	if _, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestRetryAfterDerivedFromStats pins the Retry-After contract: the hint
// is a pure, deterministic function of (queued, running, workers) —
// drain rounds ahead of the submitter, clamped to [1, 30] — never a
// constant.
func TestRetryAfterDerivedFromStats(t *testing.T) {
	cases := []struct {
		queued, running int64
		workers         int
		want            int
	}{
		{0, 0, 4, 1},    // idle queue: immediate retry
		{0, 0, 0, 1},    // degenerate worker count clamps to 1
		{1, 1, 1, 2},    // one round draining, one queued
		{4, 2, 2, 3},    // ceil(6/2)
		{5, 2, 2, 4},    // ceil(7/2): remainder rounds up
		{500, 8, 4, 30}, // deep backlog clamps at 30s
	}
	for _, c := range cases {
		s := Stats{Queued: c.queued, Running: c.running, Workers: c.workers}
		if got := RetryAfterSeconds(s); got != c.want {
			t.Errorf("RetryAfterSeconds(queued=%d running=%d workers=%d) = %d, want %d",
				c.queued, c.running, c.workers, got, c.want)
		}
	}

	// The live queue agrees with the snapshot formula as load mounts.
	q := New(Config{Workers: 1, Depth: 2})
	defer q.Close()
	if got := q.RetryAfter(); got != 1 {
		t.Fatalf("idle RetryAfter = %d, want 1", got)
	}
	block := make(chan struct{})
	running := make(chan struct{})
	if _, err := q.Submit(func(context.Context) ([]byte, error) {
		close(running)
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// workers=1, running=1, queued=2 → 3 drain rounds.
	if got := q.RetryAfter(); got != 3 {
		t.Fatalf("loaded RetryAfter = %d, want 3", got)
	}
	close(block)
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 2})
	defer q.Close()
	block := make(chan struct{})
	running := make(chan struct{})
	if _, err := q.Submit(func(context.Context) ([]byte, error) {
		close(running)
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	var ran atomic.Bool
	victim, err := q.Submit(func(context.Context) ([]byte, error) {
		ran.Store(true)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Cancel(victim.ID()) {
		t.Fatal("cancel of queued job reported no effect")
	}
	snap, _ := victim.Wait(waitCtx(t))
	if snap.State != StateFailed || !snap.Canceled || !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("snapshot: %+v", snap)
	}
	close(block)
	// Give the worker a chance to (wrongly) pick the cancelled job up.
	time.Sleep(20 * time.Millisecond)
	if ran.Load() {
		t.Fatal("cancelled job still ran")
	}
	if st := q.Stats(); st.Canceled != 1 || st.Failed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCancelRunningJobCancelsContext(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	running := make(chan struct{})
	j, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if !q.Cancel(j.ID()) {
		t.Fatal("cancel of running job reported no effect")
	}
	snap, _ := j.Wait(waitCtx(t))
	if snap.State != StateFailed || !snap.Canceled || !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("snapshot: %+v", snap)
	}
}

func TestCancelTerminalAndUnknown(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	j.Wait(waitCtx(t))
	if q.Cancel(j.ID()) {
		t.Fatal("cancel of done job reported effect")
	}
	if q.Cancel("no-such-job") {
		t.Fatal("cancel of unknown job reported effect")
	}
}

func TestPanickingJobFailsWithoutKillingWorker(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	bad, err := q.Submit(func(context.Context) ([]byte, error) { panic("kaboom") })
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := bad.Wait(waitCtx(t))
	if snap.State != StateFailed || snap.Err == nil {
		t.Fatalf("snapshot: %+v", snap)
	}
	// The pool survived: the next job still runs.
	ok, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("alive"), nil })
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := ok.Wait(waitCtx(t)); snap.State != StateDone {
		t.Fatalf("post-panic job: %+v", snap)
	}
}

func TestRetentionEvictsOldestTerminal(t *testing.T) {
	q := New(Config{Workers: 1, Retain: 2})
	defer q.Close()
	ids := make([]string, 4)
	for i := range ids {
		j, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		j.Wait(waitCtx(t))
		ids[i] = j.ID()
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("oldest job survived retention")
	}
	if _, ok := q.Get(ids[3]); !ok {
		t.Fatal("newest job evicted")
	}
}

func TestCloseFailsBacklogAndStopsSubmit(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 4})
	block := make(chan struct{})
	running := make(chan struct{})
	first, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		close(running)
		select {
		case <-block:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	queued, err := q.Submit(func(context.Context) ([]byte, error) { return []byte("never"), nil })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { q.Close(); close(done) }()
	select {
	case <-done:
	case <-waitCtx(t).Done():
		t.Fatal("Close hung")
	}
	if _, err := q.Submit(func(context.Context) ([]byte, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if snap := first.Snapshot(); snap.State != StateFailed || !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("running job after close: %+v", snap)
	}
	// Shutdown failures are not caller cancels: the flag (and with it the
	// Canceled counter and the 499-style labelling upstream) stays unset.
	if snap := queued.Snapshot(); snap.State != StateFailed || !errors.Is(snap.Err, context.Canceled) || snap.Canceled {
		t.Fatalf("queued job after close: %+v", snap)
	}
	if st := q.Stats(); st.Canceled != 0 {
		t.Fatalf("shutdown inflated the canceled counter: %+v", st)
	}
}

// TestCancelLosingRaceToCompletion: a running job whose fn ignores the
// cancel and returns a result anyway settles as done with the canceled
// flag cleared — Canceled stays a subset of Failed.
func TestCancelLosingRaceToCompletion(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	running := make(chan struct{})
	proceed := make(chan struct{})
	j, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		close(running)
		<-proceed
		return []byte("won anyway"), nil // deliberately ignores ctx
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	if !q.Cancel(j.ID()) {
		t.Fatal("cancel of running job reported no effect")
	}
	close(proceed)
	snap, _ := j.Wait(waitCtx(t))
	if snap.State != StateDone || snap.Canceled || string(snap.Result) != "won anyway" {
		t.Fatalf("snapshot: %+v", snap)
	}
	if st := q.Stats(); st.Canceled != 0 || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestConcurrentChurn hammers the queue from many goroutines under the
// race detector: submits, cancels and polls interleaving freely.
func TestConcurrentChurn(t *testing.T) {
	q := New(Config{Workers: 4, Depth: 64, Retain: 16})
	defer q.Close()
	var wg sync.WaitGroup
	var completed atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := q.Submit(func(ctx context.Context) ([]byte, error) {
					select {
					case <-time.After(time.Duration(i%3) * time.Millisecond):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
					return []byte(fmt.Sprintf("w%d-%d", w, i)), nil
				})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%4 == 0 {
					q.Cancel(j.ID())
				}
				if snap, err := j.Wait(waitCtx(t)); err == nil && snap.State == StateDone {
					completed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	st := q.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("gauges nonzero after drain: %+v", st)
	}
	if st.Done != completed.Load() {
		t.Fatalf("done %d != observed completions %d", st.Done, completed.Load())
	}
	if st.Done+st.Failed != st.Submitted {
		t.Fatalf("terminal %d+%d != submitted %d", st.Done, st.Failed, st.Submitted)
	}
}

func TestListFilter(t *testing.T) {
	q := New(Config{Workers: 1, Depth: 8})
	defer q.Close()
	block := make(chan struct{})
	jr, err := q.Submit(func(ctx context.Context) ([]byte, error) {
		<-block
		return []byte("r"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first job occupies the worker.
	waitState(t, jr, StateRunning)
	jq, err := q.Submit(func(ctx context.Context) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := q.List(""); len(got) != 2 || got[0].ID != jr.ID() || got[1].ID != jq.ID() {
		t.Fatalf("List(all) = %+v", got)
	}
	if got := q.List(StateQueued); len(got) != 1 || got[0].ID != jq.ID() {
		t.Fatalf("List(queued) = %+v", got)
	}
	if got := q.List(StateDone); len(got) != 0 {
		t.Fatalf("List(done) = %+v", got)
	}
	close(block)
	waitState(t, jr, StateDone)
	waitState(t, jq, StateDone)
	if got := q.List(StateDone); len(got) != 2 {
		t.Fatalf("List(done) after completion = %+v", got)
	}
}

// TestSettleRunsOnceBeforeEnd: finish runs a job's settle action exactly
// once on every way a job ends — done, failed, panicked, cancelled while
// running or queued, cancelled by Close while running, failed by Close
// before it ran — and before the end can be seen: by the time Done
// closes, a snapshot reads terminal or the terminal event is read, the
// action has run.
func TestSettleRunsOnceBeforeEnd(t *testing.T) {
	const jobs = 8
	var settled [jobs]atomic.Int32
	q := New(Config{Workers: 1, Depth: jobs})
	defer q.Close()
	sub := q.Events().Subscribe("", "", 0)
	defer sub.Close()
	check := func(seenBy, id string) {
		var seq int
		if _, err := fmt.Sscanf(id, "j%d", &seq); err != nil || seq < 1 || seq > jobs {
			t.Errorf("unexpected job id %q", id)
			return
		}
		if n := settled[seq-1].Load(); n != 1 {
			t.Errorf("job %s: settle had run %d times when %s showed its end, want 1", id, n, seenBy)
		}
	}

	var watchers sync.WaitGroup
	ctx := waitCtx(t)
	watchers.Add(1)
	go func() {
		defer watchers.Done()
		for ended := 0; ; {
			evs, _, _ := sub.Read()
			for _, ev := range evs {
				if ev.State.Terminal() {
					check("the terminal event", ev.JobID)
					ended++
				}
			}
			if ended == jobs {
				return
			}
			select {
			case <-sub.Ready():
			case <-ctx.Done():
				t.Errorf("%d of %d terminal events read", ended, jobs)
				return
			}
		}
	}()
	next := 0
	submit := func(fn Func) *Job {
		t.Helper()
		i := next
		next++
		// The action dawdles before it counts, so an end that showed
		// before the action had run would be seen with a count of 0.
		j, err := q.SubmitTraced(fn, "", func() {
			time.Sleep(time.Millisecond)
			settled[i].Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		watchers.Add(2)
		go func() {
			defer watchers.Done()
			<-j.Done()
			check("Done", j.ID())
		}()
		go func() {
			defer watchers.Done()
			for !j.Snapshot().State.Terminal() {
				runtime.Gosched()
			}
			check("a snapshot", j.ID())
		}()
		return j
	}
	blocker := func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}

	running := submit(blocker)
	waitState(t, running, StateRunning)
	queued := submit(blocker)
	if !q.Cancel(queued.ID()) || !q.Cancel(running.ID()) {
		t.Fatal("a live job was not cancellable")
	}
	submit(func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	submit(func(context.Context) ([]byte, error) { return nil, errors.New("boom") })
	submit(func(context.Context) ([]byte, error) { panic("kaboom") })
	waitState(t, submit(blocker), StateRunning)
	submit(blocker)
	submit(blocker)
	q.Close()
	watchers.Wait()
	for i := range settled {
		if n := settled[i].Load(); n != 1 {
			t.Errorf("job %d: settle ran %d times, want 1", i+1, n)
		}
	}
}

// waitState polls a job until it reaches the wanted state.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := j.Snapshot()
		if snap.State == want {
			return
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached %s, want %s", j.ID(), snap.State, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID(), snap.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}
