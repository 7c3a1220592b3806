package batch

import (
	"sync"
	"sync/atomic"
	"time"
)

// The event layer turns the queue's pull-driven lifecycle into a
// push-driven one, mirroring the IPPS manager/topic split: the queue is
// the publisher, an Events manager assigns every job state transition a
// globally monotonic sequence number, retains the recent past in a
// bounded ring for replay, and fans each event out to per-job and
// per-topic subscribers over buffered channels. Delivery is best-effort
// with drop-and-mark semantics: a subscriber that cannot keep up never
// blocks a publisher — the event is dropped for that subscriber, the
// drop is counted on the subscription, and the subscriber resynchronises
// by replaying the ring from its last seen sequence number. Per-job
// ordering is exact: a job's events are published in transition order,
// so any subscriber that keeps up (or replays after a drop, while the
// gap is still inside the ring) observes queued → running → done/failed
// exactly once, in order.

// StateExpired is the pseudo-state published when the retention sweeper
// evicts a terminal job: the job's last event, emitted before the job is
// removed from tracking, so watchers learn the id is gone rather than
// polling into a 404. It is also the state a swept job's Snapshot
// reports, which is what keeps List honest mid-sweep (see expire).
const StateExpired State = "expired"

// Event is one job state transition, as published to subscribers.
type Event struct {
	// Seq is the queue-global monotonic sequence number; SSE clients use
	// it as the event id and replay from it after a reconnect.
	Seq   uint64 `json:"seq"`
	JobID string `json:"job"`
	// State is the state the job just entered: queued, running, done,
	// failed, or expired.
	State State `json:"state"`
	// Canceled marks a failed event caused by Cancel.
	Canceled bool `json:"canceled,omitempty"`
	// Error carries a failed event's reason.
	Error string `json:"error,omitempty"`
	// Labels are the job's topics (see SubmitTraced).
	Labels []string  `json:"labels,omitempty"`
	Time   time.Time `json:"time"`
}

// matches reports whether the event passes a job/topic filter ("" = any).
func (ev Event) matches(jobID, topic string) bool {
	if jobID != "" && ev.JobID != jobID {
		return false
	}
	if topic != "" {
		for _, l := range ev.Labels {
			if l == topic {
				return true
			}
		}
		return false
	}
	return true
}

// EventStats summarises the event layer for /metrics.
type EventStats struct {
	// Published counts every event the queue emitted; LastSeq is the
	// sequence number of the newest one (0 = none yet).
	Published int64  `json:"published"`
	LastSeq   uint64 `json:"last_seq"`
	// Dropped counts subscriber-side drops: events a full subscription
	// buffer could not take (each drop is also counted on its
	// subscription, which is what triggers a replay resync).
	Dropped int64 `json:"dropped"`
	// Subscribers is the current subscription count; RingLen is how many
	// events the replay ring currently retains.
	Subscribers int `json:"subscribers"`
	RingLen     int `json:"ring_len"`
}

// Events is the queue's pub/sub manager. Obtain it with Queue.Events;
// the queue publishes, subscribers watch.
type Events struct {
	mu        sync.Mutex
	seq       uint64
	ring      []Event // newest last; bounded by ringCap, contiguous seqs
	ringCap   int
	subs      map[*Subscription]struct{}
	closed    bool
	published int64
	dropped   int64
}

func newEvents(ringCap int) *Events {
	if ringCap <= 0 {
		ringCap = 1024
	}
	return &Events{ringCap: ringCap, subs: make(map[*Subscription]struct{})}
}

// Subscription is one subscriber's buffered view of the event stream,
// filtered by job id and/or topic. Read from C; check Dropped after a
// slow spell and replay to resynchronise; Close when done.
type Subscription struct {
	events  *Events
	ch      chan Event
	jobID   string
	topic   string
	dropped atomic.Int64
}

// C is the delivery channel. It is closed when the queue shuts down.
func (s *Subscription) C() <-chan Event { return s.ch }

// Dropped returns how many events this subscription missed because its
// buffer was full, and resets the counter — so a caller that replays the
// ring after a non-zero answer starts the next accounting period clean.
func (s *Subscription) Dropped() int64 { return s.dropped.Swap(0) }

// Close detaches the subscription and closes its channel.
func (s *Subscription) Close() {
	e := s.events
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.subs[s]; !ok {
		return
	}
	delete(e.subs, s)
	close(s.ch)
}

// Subscribe registers a subscriber for events matching jobID and/or
// topic ("" = any). buf bounds the delivery channel (0 = 64): when it is
// full the publisher drops the event for this subscriber and marks the
// subscription instead of blocking.
func (e *Events) Subscribe(jobID, topic string, buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	s := &Subscription{events: e, ch: make(chan Event, buf), jobID: jobID, topic: topic}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		close(s.ch)
		return s
	}
	e.subs[s] = struct{}{}
	return s
}

// publish assigns the next sequence number, stores the event in the
// replay ring and fans it out. Called by the queue with its own ordering
// guarantees (a job's transitions are published in order); holding e.mu
// across assignment and fan-out is what makes sequence order and
// delivery order agree on every channel.
func (e *Events) publish(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.seq++
	ev.Seq = e.seq
	e.published++
	e.ring = append(e.ring, ev)
	if len(e.ring) > e.ringCap {
		// Trim in chunks so appends stay amortised O(1).
		e.ring = append(e.ring[:0:0], e.ring[len(e.ring)-e.ringCap:]...)
	}
	for s := range e.subs {
		if !ev.matches(s.jobID, s.topic) {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			e.dropped++
		}
	}
}

// Replay returns the retained events with Seq > after that match the
// filter, in sequence order. The ring is bounded: events older than its
// capacity are gone, so a subscriber that lagged beyond it sees a gap —
// the trade the drop-and-mark policy makes to keep publishers wait-free.
// OldestRetained reports where coverage starts.
func (e *Events) Replay(after uint64, jobID, topic string) []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Event
	for _, ev := range e.ring {
		if ev.Seq > after && ev.matches(jobID, topic) {
			out = append(out, ev)
		}
	}
	return out
}

// OldestRetained returns the smallest sequence number still in the
// replay ring (0 when the ring is empty): a reconnecting client whose
// Last-Event-ID is older than this minus one cannot be replayed
// completely.
func (e *Events) OldestRetained() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.ring) == 0 {
		return 0
	}
	return e.ring[0].Seq
}

// LastSeq returns the newest assigned sequence number (0 = none yet).
func (e *Events) LastSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Stats returns a point-in-time summary of the event layer.
func (e *Events) Stats() EventStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EventStats{
		Published:   e.published,
		LastSeq:     e.seq,
		Dropped:     e.dropped,
		Subscribers: len(e.subs),
		RingLen:     len(e.ring),
	}
}

// closeAll ends the stream: every subscription channel is closed (after
// this no publish succeeds). Called by Queue.Close once the workers have
// drained, so no publisher is mid-flight.
func (e *Events) closeAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for s := range e.subs {
		delete(e.subs, s)
		close(s.ch)
	}
}

// eventOf renders a job's current (locked) fields as an event. Callers
// hold j.mu or know the job is no longer mutating.
func eventOf(j *Job, state State) Event {
	ev := Event{
		JobID:    j.id,
		State:    state,
		Canceled: j.canceled,
		Labels:   j.labels,
		Time:     time.Now(),
	}
	if state == StateFailed && j.err != nil {
		ev.Error = j.err.Error()
	}
	return ev
}
