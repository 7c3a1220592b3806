package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"antlayer/internal/obs"
	"antlayer/internal/retry"
	"antlayer/internal/shard"
)

// reconnectBackoff computes the worker's retry schedule: exponential
// doubling from base up to max, plus a deterministic jitter keyed off the
// attempt counter — so a restarted fleet doesn't redial in lockstep, yet
// the exact schedule is pinned by a unit test. reset() (wired to the
// worker's OnRegister callback) snaps the schedule back to base after a
// successful registration, so one long outage doesn't make the worker
// sluggish about the next brief one.
type reconnectBackoff struct {
	base, max time.Duration

	mu      sync.Mutex
	attempt int
}

// next returns the delay before the upcoming reconnect attempt
// (retry.Backoff) and advances the schedule.
func (b *reconnectBackoff) next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := retry.Backoff(b.base, b.max, b.attempt)
	b.attempt++
	return d
}

// reset snaps the schedule back to the base delay.
func (b *reconnectBackoff) reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}

// sleepCtx waits d or returns false when ctx dies first. workerLoop takes
// it as a parameter so tests can run the schedule against a fake clock.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// workerLoop is the reconnect loop, factored out of runWorker so the
// backoff behaviour is unit-testable: run performs one registration
// session and returns when the connection is lost; sleep waits out the
// backoff delay (or reports the context died). A zero or negative base
// disables retrying — the first connection error is returned as-is.
func workerLoop(ctx context.Context, coordinator string, run func(context.Context) error, b *reconnectBackoff, sleep func(context.Context, time.Duration) bool, logger *slog.Logger) error {
	if logger == nil {
		logger = obs.Discard()
	}
	for {
		err := run(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if b.base <= 0 {
			return err
		}
		d := b.next()
		logger.Warn("connection lost; retrying",
			"coordinator", coordinator, "err", err, "backoff", d)
		if !sleep(ctx, d) {
			return nil
		}
	}
}

// runWorker joins a coordinator's archipelago: dial, register, and host
// assigned island slices until ctx is cancelled. A lost connection is
// retried with capped exponential backoff that resets after a successful
// registration — the coordinator expels dead workers and re-registration
// is all it takes to rejoin the fleet.
func runWorker(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("daglayer worker", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator address to register with (required), e.g. host:8650")
		name        = fs.String("name", "", "worker name in the coordinator's logs and /cluster (default: worker-<id>)")
		retry       = fs.Duration("retry", 2*time.Second, "base backoff between reconnect attempts (doubles per failure); 0 exits on the first connection error")
		retryMax    = fs.Duration("retry-max", 30*time.Second, "cap on the reconnect backoff")
		secret      = fs.String("cluster-secret", "", "shared secret to present at registration (must match the coordinator's -cluster-secret)")
		quiet       = fs.Bool("quiet", false, "suppress per-run logging")
		logLevel    = fs.String("log-level", "info", "log threshold: debug|info|warn|error")
		logFormat   = fs.String("log-format", "text", "log line format: text|json")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: daglayer worker -coordinator host:port [flags]

Joins a layering cluster as a worker process: registers with the
coordinator (a daemon started with 'daglayer serve -coordinator'), then
hosts the islands assigned to it — the coordinator exchanges elites with
every worker at each migration barrier, so the cluster's answer is
byte-identical to a single-process run (see README "Cluster").

flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		fs.Usage()
		return fmt.Errorf("worker: -coordinator is required")
	}
	var logger *slog.Logger
	if !*quiet {
		lg, err := obs.NewLogger(stdout, *logLevel, *logFormat)
		if err != nil {
			return err
		}
		logger = lg
	}
	b := &reconnectBackoff{base: *retry, max: *retryMax}
	if b.max < b.base {
		b.max = b.base
	}
	w := shard.NewWorker(shard.WorkerConfig{
		Name:   *name,
		Secret: *secret,
		Log:    logger,
		// A successful registration resets the backoff: the next outage
		// starts the schedule from the base delay again.
		OnRegister: func(int) { b.reset() },
	})
	return workerLoop(ctx, *coordinator, func(ctx context.Context) error {
		return w.Run(ctx, *coordinator)
	}, b, sleepCtx, logger)
}
