package chaos

import (
	"context"
	"io"
	"net"
	"sync"
	"time"
)

// Relay is a slow network link on loopback. It accepts connections,
// dials its upstream for each, and forwards both ways, holding every
// byte the dialing side sends for a fixed delay; what flows back passes
// at once. A worker whose -coordinator is a Relay is a slow worker made
// slow on the wire: each frame it sends (epoch elites, heartbeats, the
// final report) reaches the coordinator that much late, while the
// worker runs unchanged.
type Relay struct {
	ln       net.Listener
	upstream string
	delay    time.Duration
	closing  context.Context // done once Close has begun
	cancel   context.CancelFunc
	wg       sync.WaitGroup // the accept loop and every pump
}

// StartRelay listens on a free loopback port in front of upstream.
func StartRelay(upstream string, delay time.Duration) (*Relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &Relay{ln: ln, upstream: upstream, delay: delay}
	r.closing, r.cancel = context.WithCancel(context.Background())
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

// Addr is the address to dial instead of the upstream.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Close stops accepting, cuts every relayed connection and returns once
// the relay's goroutines have exited.
func (r *Relay) Close() error {
	r.cancel()
	err := r.ln.Close()
	r.wg.Wait()
	return err
}

func (r *Relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.upstream)
		if err != nil {
			down.Close()
			continue
		}
		// Either direction ending cuts both, as a cut cable would, and so
		// does Close.
		cut := func() {
			down.Close()
			up.Close()
		}
		unhook := context.AfterFunc(r.closing, cut)
		r.wg.Add(2)
		go func() {
			defer r.wg.Done()
			r.delayCopy(up, down)
			cut()
		}()
		go func() {
			defer r.wg.Done()
			_, _ = io.Copy(down, up) // its end is the cut
			cut()
			unhook()
		}()
	}
}

// delayCopy forwards src to dst, writing each chunk the delay after it
// was read: a pipeline, so the link adds latency without capping
// throughput.
func (r *Relay) delayCopy(dst, src net.Conn) {
	type chunk struct {
		due time.Time
		b   []byte
	}
	// The buffer is the link's capacity: past 64 chunks in flight the
	// reader waits, as a sender waits on a full TCP window.
	chunks := make(chan chunk, 64)
	go func() {
		defer close(chunks)
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				chunks <- chunk{time.Now().Add(r.delay), append([]byte(nil), buf[:n]...)}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range chunks {
		time.Sleep(time.Until(c.due))
		if _, err := dst.Write(c.b); err != nil {
			src.Close() // ends the reader; the loop below drains it
			break
		}
	}
	for range chunks {
	}
}
