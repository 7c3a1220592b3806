package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestUnknownModeListsModes(t *testing.T) {
	err := run(context.Background(), []string{"frobnicate"}, nil, new(bytes.Buffer))
	if err == nil {
		t.Fatal("unknown mode succeeded")
	}
	for _, want := range []string{"frobnicate", "layer", "serve"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestHelpMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"help"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"layer", "serve", "usage"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("help output missing %q:\n%s", want, out.String())
		}
	}
}

func TestExplicitLayerMode(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"layer", "-algo", "lpl"}, strings.NewReader(demoDOT), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "algorithm: lpl") {
		t.Fatalf("layer mode output:\n%s", out.String())
	}
}

func TestServeBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"serve", "-bogus"}, nil, new(bytes.Buffer)); err == nil {
		t.Fatal("serve with unknown flag succeeded")
	}
}

func TestServeStartsAndShutsDownGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-quiet"}, nil, new(bytes.Buffer))
	}()
	// Give the listener a moment to come up, then trigger shutdown.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after cancel")
	}
}

// TestNoFaultFlags: the shipped binaries carry no test hooks. Neither
// serve nor worker lists a fault flag in its -h, and one given anyway is
// refused as undefined; chaos tests make workers slow or dead on the
// wire instead. Nor does serve take -job-expiry: the -job-retention
// count alone retires finished jobs.
func TestNoFaultFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a mode that parses its flags returns at once
	for _, mode := range []string{"serve", "worker"} {
		usage, err := stderrOf(t, func() error { return run(ctx, []string{mode, "-h"}, nil, io.Discard) })
		if err != flag.ErrHelp || !strings.Contains(usage, "-quiet") {
			t.Fatalf("%s -h: err %v, usage %q", mode, err, usage)
		}
		if strings.Contains(usage, "-fault") || strings.Contains(usage, "-job-expiry") {
			t.Fatalf("%s -h lists a removed flag:\n%s", mode, usage)
		}
	}
	for _, args := range [][]string{
		{"serve", "-fault-compute-delay", "1s"}, {"worker", "-fault-epoch-delay", "1s"}, {"serve", "-job-expiry", "1m"},
	} {
		_, err := stderrOf(t, func() error { return run(ctx, args, nil, io.Discard) })
		if want := "flag provided but not defined: " + args[1]; err == nil || err.Error() != want {
			t.Errorf("%v: err %v, want %q", args, err, want)
		}
	}
}

// stderrOf runs f with os.Stderr captured: flag sets print their usage
// there.
func stderrOf(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	ferr := f()
	os.Stderr = saved
	w.Close()
	out, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}
