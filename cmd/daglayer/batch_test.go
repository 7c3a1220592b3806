package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"antlayer/internal/server"
)

// writeBatchCorpus lays out a mixed directory: two DOT files, one edge
// list, one ignorable file.
func writeBatchCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"a.dot":       demoDOT,
		"b.dot":       "digraph b { x -> y; y -> z; }",
		"c.edges":     "3 2\n2 1\n1 0\n",
		"ignored.txt": "not a graph",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestBatchLayersDirectory(t *testing.T) {
	dir := writeBatchCorpus(t)
	out := t.TempDir()
	var buf bytes.Buffer
	err := run(context.Background(), []string{"batch", "-out", out, "-algo", "lpl", dir}, nil, &buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	for _, want := range []string{"a.json", "b.json", "c.json"} {
		data, err := os.ReadFile(filepath.Join(out, want))
		if err != nil {
			t.Fatalf("missing result: %v", err)
		}
		var resp struct {
			Algo   string `json:"algo"`
			Layers [][]string
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if resp.Algo != "lpl" || len(resp.Layers) == 0 {
			t.Fatalf("%s: %+v", want, resp)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "ignored.json")); !os.IsNotExist(err) {
		t.Fatal("non-graph file was layered")
	}
	if !strings.Contains(buf.String(), "3/3 layered") {
		t.Fatalf("summary missing:\n%s", buf.String())
	}
}

// TestBatchIslandMatchesServeBody: the batch result of an island run is
// byte-for-byte the body the HTTP daemon would serve for the same
// request — the shared-Compute guarantee.
func TestBatchIslandMatchesDeterministicRerun(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g.dot"), []byte(demoDOT), 0o644); err != nil {
		t.Fatal(err)
	}
	out1, out2 := t.TempDir(), t.TempDir()
	for _, out := range []string{out1, out2} {
		var buf bytes.Buffer
		err := run(context.Background(),
			[]string{"batch", "-out", out, "-algo", "island", "-islands", "2", "-tours", "2", "-seed", "7", dir},
			nil, &buf)
		if err != nil {
			t.Fatalf("%v\n%s", err, buf.String())
		}
	}
	b1, err := os.ReadFile(filepath.Join(out1, "g.json"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(out2, "g.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("island batch runs diverged:\n%s\n%s", b1, b2)
	}
	var resp struct {
		Algo       string `json:"algo"`
		BestIsland *int   `json:"best_island"`
	}
	if err := json.Unmarshal(b1, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Algo != "island" || resp.BestIsland == nil {
		t.Fatalf("island result body: %s", b1)
	}
}

func TestBatchFailuresAreReported(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.dot"), []byte("this is not dot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "good.dot"), []byte(demoDOT), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(context.Background(), []string{"batch", "-algo", "lpl", dir}, nil, &buf)
	if err == nil {
		t.Fatal("batch with a corrupt input succeeded")
	}
	if !strings.Contains(buf.String(), "FAILED") || !strings.Contains(buf.String(), "1/2 layered") {
		t.Fatalf("failure table wrong:\n%s", buf.String())
	}
	// The good input still produced its result next to the inputs.
	if _, err := os.Stat(filepath.Join(dir, "good.json")); err != nil {
		t.Fatal("good input result missing after partial failure")
	}
}

// TestBatchBaseNameCollision: g1.dot and g1.edges must not fight over
// g1.json — colliding bases keep their full input name.
func TestBatchBaseNameCollision(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g1.dot"), []byte(demoDOT), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "g1.edges"), []byte("3 2\n2 1\n1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"batch", "-out", out, "-algo", "lpl", dir}, nil, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	for _, want := range []string{"g1.dot.json", "g1.edges.json"} {
		if _, err := os.Stat(filepath.Join(out, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "g1.json")); !os.IsNotExist(err) {
		t.Error("ambiguous g1.json written despite collision")
	}
}

func TestBatchArgValidation(t *testing.T) {
	if err := run(context.Background(), []string{"batch"}, nil, new(bytes.Buffer)); err == nil {
		t.Fatal("batch without a directory succeeded")
	}
	if err := run(context.Background(), []string{"batch", t.TempDir()}, nil, new(bytes.Buffer)); err == nil {
		t.Fatal("batch over an empty directory succeeded")
	}
	if err := run(context.Background(), []string{"batch", "-algo", "bogus", t.TempDir()}, nil, new(bytes.Buffer)); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestVersionMode(t *testing.T) {
	for _, arg := range []string{"version", "-version", "--version"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{arg}, nil, &buf); err != nil {
			t.Fatalf("%s: %v", arg, err)
		}
		if !strings.HasPrefix(buf.String(), "daglayer ") || len(strings.TrimSpace(buf.String())) <= len("daglayer") {
			t.Fatalf("%s output: %q", arg, buf.String())
		}
	}
}

func TestLayerIslandAlgo(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(),
		[]string{"-algo", "island", "-islands", "2", "-tours", "2", "-migration-interval", "1"},
		strings.NewReader(demoDOT), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "algorithm: island") {
		t.Fatalf("island layer output:\n%s", out.String())
	}
}

// TestBatchStreamMode drives `daglayer batch -stream` end to end against
// a live daemon: every input goes up /jobs/bulk, results stream back, and
// each written file is byte-identical to what the local batch mode
// produces for the same flags — the full push pipeline under one test.
func TestBatchStreamMode(t *testing.T) {
	dir := writeBatchCorpus(t)
	localOut, streamOut := t.TempDir(), t.TempDir()
	flags := []string{"-algo", "aco", "-tours", "2", "-seed", "5"}

	var buf bytes.Buffer
	args := append(append([]string{"batch", "-out", localOut}, flags...), dir)
	if err := run(context.Background(), args, nil, &buf); err != nil {
		t.Fatalf("local batch: %v\n%s", err, buf.String())
	}

	s := server.New(server.Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	buf.Reset()
	args = append(append([]string{"batch", "-stream", "-addr", ts.URL, "-out", streamOut}, flags...), dir)
	if err := run(context.Background(), args, nil, &buf); err != nil {
		t.Fatalf("stream batch: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "3/3 layered (streamed via") {
		t.Fatalf("stream summary missing:\n%s", buf.String())
	}

	for _, name := range []string{"a.json", "b.json", "c.json"} {
		local, err := os.ReadFile(filepath.Join(localOut, name))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := os.ReadFile(filepath.Join(streamOut, name))
		if err != nil {
			t.Fatalf("stream result missing: %v", err)
		}
		if !bytes.Equal(local, streamed) {
			t.Fatalf("%s: streamed result differs from local batch:\n%s\nvs\n%s", name, streamed, local)
		}
	}
}

// TestBatchStreamNeedsAddr: -stream without -addr is refused up front.
func TestBatchStreamNeedsAddr(t *testing.T) {
	dir := writeBatchCorpus(t)
	var buf bytes.Buffer
	err := run(context.Background(), []string{"batch", "-stream", dir}, nil, &buf)
	if err == nil || !strings.Contains(err.Error(), "-addr") {
		t.Fatalf("err = %v, want a -addr complaint", err)
	}
}

// TestBatchStreamComputesCold: -stream asks the daemon for cold runs. A
// first pass over an edit chain leaves warm anchors in the daemon; a
// second pass under another -tours must still write the bytes the local
// mode writes for that -tours, not warm-started ones.
func TestBatchStreamComputesCold(t *testing.T) {
	dir := t.TempDir()
	edges := []string{"a -> b", "b -> c", "c -> d", "d -> e", "e -> f", "f -> g", "a -> d", "b -> f", "c -> g"}
	for i := 0; i < 4; i++ {
		graph := "digraph { " + strings.Join(edges[:6+i], "; ") + " }"
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("e%d.dot", i)), []byte(graph), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(server.Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	streamOut := t.TempDir()
	for _, tours := range []string{"4", "6"} {
		args := []string{"batch", "-stream", "-addr", ts.URL, "-out", streamOut, "-tours", tours, "-seed", "3", dir}
		if err := run(context.Background(), args, nil, &buf); err != nil {
			t.Fatalf("stream batch -tours %s: %v\n%s", tours, err, buf.String())
		}
	}
	localOut := t.TempDir()
	if err := run(context.Background(), []string{"batch", "-out", localOut, "-tours", "6", "-seed", "3", dir}, nil, &buf); err != nil {
		t.Fatalf("local batch: %v\n%s", err, buf.String())
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("e%d.json", i)
		local, err := os.ReadFile(filepath.Join(localOut, name))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := os.ReadFile(filepath.Join(streamOut, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(local, streamed) {
			t.Errorf("%s: streamed result differs from local batch:\n%s\nvs\n%s", name, streamed, local)
		}
	}
}
