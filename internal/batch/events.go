package batch

import (
	"sync"
	"time"
)

// The event layer turns the queue's pull-driven lifecycle into a
// push-driven one, mirroring the IPPS manager/topic split: the queue
// publishes, and an Events manager gives every job state transition a
// globally monotonic sequence number and stores it in a bounded ring,
// the only place watchers read from. A Subscription is a job/topic
// filter, a cursor and a one-slot doorbell that publish rings without
// blocking. Nothing is dropped: the ring's bound is the only loss, and
// Read reports it as a gap. A job's events are published in transition
// order, so a watcher that reads without a gap observes queued →
// running → done/failed exactly once, in order.

// Event is one job state transition, as published to subscribers.
type Event struct {
	// Seq is the queue-global monotonic sequence number; SSE clients use
	// it as the event id and replay from it after a reconnect.
	Seq   uint64 `json:"seq"`
	JobID string `json:"job"`
	// State is the state the job just entered: queued, running, done or
	// failed.
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
	// Subscribers is the current subscription count; RingLen is how many
	// events the ring currently retains.
	Subscribers int `json:"subscribers"`
	RingLen     int `json:"ring_len"`
}

// Events is the queue's pub/sub manager. Obtain it with Queue.Events;
// the queue publishes, subscribers read.
type Events struct {
	mu        sync.Mutex
	seq       uint64
	ring      []Event // seq s sits at ring[(s-1) % ringCap]; seqs are contiguous
	ringCap   int
	subs      map[*Subscription]struct{}
	published int64
}

func newEvents(ringCap int) *Events {
	if ringCap <= 0 {
		ringCap = 1024
	}
	return &Events{ringCap: ringCap, subs: make(map[*Subscription]struct{})}
}

// Subscription is one watcher's cursor over the ring, filtered by job id
// and/or topic. Wait on Ready, then Read; Close when done.
type Subscription struct {
	events       *Events
	jobID, topic string
	bell         chan struct{} // one slot: rung by publish, drained by Read
	// Guarded by events.mu.
	cursor uint64 // newest seq read
	unread uint64 // first matching seq published since the last Read (after+1 before the first); 0 = none
}

// Ready is the subscription's doorbell: it receives once a matching event
// has been published since the last Read.
func (s *Subscription) Ready() <-chan struct{} { return s.bell }

// Close detaches the subscription. Safe to call more than once.
func (s *Subscription) Close() {
	e := s.events
	e.mu.Lock()
	delete(e.subs, s)
	e.mu.Unlock()
}

// Subscribe registers a subscriber for events matching jobID and/or
// topic ("" = any), with its cursor at after: the first Read returns the
// retained events past it, and reports a gap when after > 0 and the ring
// no longer reaches after+1.
func (e *Events) Subscribe(jobID, topic string, after uint64) *Subscription {
	s := &Subscription{events: e, jobID: jobID, topic: topic, bell: make(chan struct{}, 1), cursor: after}
	if after > 0 {
		s.unread = after + 1 // 0 when after is the largest seq: nothing can follow it
	}
	e.mu.Lock()
	e.subs[s] = struct{}{}
	e.mu.Unlock()
	return s
}

// publish assigns the next sequence number, stores the event in the ring
// and rings the doorbell of every subscription it matches. Called by the
// queue with its own ordering guarantees (a job's transitions are
// published in order). It never blocks: a doorbell already rung stays
// rung, and the event waits in the ring.
func (e *Events) publish(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	ev.Seq = e.seq
	e.published++
	if len(e.ring) < e.ringCap {
		e.ring = append(e.ring, ev)
	} else {
		e.ring[(ev.Seq-1)%uint64(e.ringCap)] = ev
	}
	for s := range e.subs {
		if ev.Seq <= s.cursor || !ev.matches(s.jobID, s.topic) {
			continue
		}
		if s.unread == 0 {
			s.unread = ev.Seq
		}
		select {
		case s.bell <- struct{}{}:
		default:
		}
	}
}

// Read returns the retained events matching the subscription that were
// published after its cursor, in sequence order, and moves the cursor to
// the newest sequence number. gap reports that events it should have
// returned left the ring unread; oldest is the oldest sequence number the
// ring retains (0 = empty). A read costs O(events after the cursor).
func (s *Subscription) Read() (evs []Event, oldest uint64, gap bool) {
	e := s.events
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-s.bell: // this read covers whatever rang it
	default:
	}
	if n := uint64(len(e.ring)); n > 0 {
		oldest = e.seq - n + 1
		gap = s.unread != 0 && s.unread < oldest
		// The cursor may come from a client's Last-Event-ID, so it can lie
		// anywhere, past the newest seq included.
		for seq := max(s.cursor, oldest-1) + 1; s.cursor < e.seq && seq <= e.seq; seq++ {
			if ev := e.ring[(seq-1)%uint64(e.ringCap)]; ev.matches(s.jobID, s.topic) {
				evs = append(evs, ev)
			}
		}
	}
	s.cursor = max(s.cursor, e.seq)
	s.unread = 0
	return evs, oldest, gap
}

// Stats returns a point-in-time summary of the event layer.
func (e *Events) Stats() EventStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EventStats{
		Published:   e.published,
		LastSeq:     e.seq,
		Subscribers: len(e.subs),
		RingLen:     len(e.ring),
	}
}

// eventOf renders a job's current (locked) fields as an event. Callers
// hold j.mu or know the job is no longer mutating.
func eventOf(j *Job) Event {
	ev := Event{
		JobID:    j.id,
		State:    j.state,
		Canceled: j.canceled,
		Labels:   j.labels,
		Time:     time.Now(),
	}
	if j.state == StateFailed && j.err != nil {
		ev.Error = j.err.Error()
	}
	return ev
}
