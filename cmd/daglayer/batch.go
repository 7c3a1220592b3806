package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"antlayer/internal/batch"
	"antlayer/internal/server"
)

// runBatch implements `daglayer batch <dir>`: layer every .dot and .edges
// file in the directory concurrently on a bounded job queue and write one
// JSON result per input — the same body the HTTP daemon's /layer (and a
// done /jobs/{id}) serves, so downstream tooling parses one shape
// everywhere. Interrupting the run (Ctrl-C) cancels the in-flight
// colonies; already-written results stay on disk.
func runBatch(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("daglayer batch", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: daglayer batch [flags] <dir>

Layers every .dot and .edges file in <dir> concurrently and writes a
<name>.json result per input (the same JSON the HTTP daemon serves).

With -stream, the files are submitted to a running daemon's POST
/jobs/bulk instead of computing locally: one ndjson line per input goes
up, results stream back in completion order, and each is written as it
arrives. Requires -addr; -jobs is ignored (the daemon's job pool is the
bound).

flags:
`)
		fs.PrintDefaults()
	}
	query := requestFlags(fs)
	var (
		out     = fs.String("out", "", "output directory (default: the input directory)")
		jobs    = fs.Int("jobs", 0, "concurrent layering jobs (0 = all CPUs)")
		stream  = fs.Bool("stream", false, "submit through a daemon's POST /jobs/bulk and stream results back (requires -addr)")
		addr    = fs.String("addr", "", "daemon base URL for -stream, e.g. http://localhost:8645")
		timeout = fs.Duration("timeout", 0, "per-file deadline (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("batch wants exactly one directory argument, got %d", fs.NArg())
	}
	if *stream && *addr == "" {
		return fmt.Errorf("-stream needs -addr (the daemon's base URL)")
	}
	dir := fs.Arg(0)
	outDir := *out
	if outDir == "" {
		outDir = dir
	}
	params := query()
	req, err := server.ParseRequest(params)
	if err != nil {
		return err
	}

	inputs, err := batchInputs(dir)
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return fmt.Errorf("no .dot or .edges files in %s", dir)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	if *stream {
		// The local mode computes cold, so the daemon must too: a warm
		// start from an anchor left by earlier traffic answers other bytes.
		params.Set("warm", "false")
		if *timeout > 0 {
			params.Set("timeout-ms", strconv.FormatInt(timeout.Milliseconds(), 10))
		}
		return runBatchStream(ctx, *addr, dir, outDir, inputs, params, stdout)
	}

	q := batch.New(batch.Config{
		Workers: *jobs,
		// The whole work list is submitted up front, so the backlog bound
		// is the input count — the queue paces the workers, not Submit.
		Depth:  len(inputs),
		Retain: len(inputs),
	})
	defer q.Close()

	// Cancel the queue's jobs when ctx dies (Ctrl-C): the colonies abort
	// within one ant walk per worker and the run reports the failures.
	stop := context.AfterFunc(ctx, func() { q.Close() })
	defer stop()

	type submission struct {
		name string
		job  *batch.Job
	}
	subs := make([]submission, 0, len(inputs))
	for _, name := range inputs {
		freq := req // copy; Format differs per file
		freq.Format = inputFormat(name)
		path := filepath.Join(dir, name)
		j, err := q.Submit(func(jctx context.Context) ([]byte, error) {
			if *timeout > 0 {
				var cancel context.CancelFunc
				jctx, cancel = context.WithTimeout(jctx, *timeout)
				defer cancel()
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			g, names, err := server.ParseGraph(freq, f)
			if err != nil {
				return nil, fmt.Errorf("parse: %w", err)
			}
			body, _, _, err := server.Compute(jctx, freq, g, names, nil)
			return body, err
		})
		if err != nil {
			return fmt.Errorf("submit %s: %w", name, err)
		}
		subs = append(subs, submission{name: name, job: j})
	}

	dest := destNames(inputs)
	failed := 0
	for _, sub := range subs {
		snap, _ := sub.job.Wait(context.Background()) // jobs settle even on cancel
		switch snap.State {
		case batch.StateDone:
			dst := filepath.Join(outDir, dest[sub.name])
			if err := os.WriteFile(dst, snap.Result, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-30s ok     %s (%s)\n", sub.name, summarize(snap.Result), snap.Finished.Sub(snap.Started).Round(time.Millisecond))
		default:
			failed++
			fmt.Fprintf(stdout, "%-30s FAILED %v\n", sub.name, snap.Err)
		}
	}
	fmt.Fprintf(stdout, "batch: %d/%d layered (algo=%s, %d jobs)\n", len(subs)-failed, len(subs), req.Algo, *jobs)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("batch interrupted: %w", err)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d inputs failed", failed, len(subs))
	}
	return nil
}

// destNames maps each input to its result filename: <base>.json, except
// when two inputs share a base (g1.dot and g1.edges), which keep their
// full name — g1.dot.json, g1.edges.json — so neither result silently
// overwrites the other.
func destNames(inputs []string) map[string]string {
	bases := map[string]int{}
	for _, name := range inputs {
		bases[strings.TrimSuffix(name, filepath.Ext(name))]++
	}
	dest := make(map[string]string, len(inputs))
	for _, name := range inputs {
		base := strings.TrimSuffix(name, filepath.Ext(name))
		if bases[base] > 1 {
			dest[name] = name + ".json"
		} else {
			dest[name] = base + ".json"
		}
	}
	return dest
}

// inputFormat is the /layer format of a batch input, named by its
// extension.
func inputFormat(name string) string {
	if strings.HasSuffix(name, ".dot") {
		return "dot"
	}
	return "edges"
}

// batchInputs lists the layerable files of dir in sorted order, so runs
// are reproducible and the result table is stable.
func batchInputs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var inputs []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".dot", ".edges":
			inputs = append(inputs, e.Name())
		}
	}
	sort.Strings(inputs)
	return inputs, nil
}

// runBatchStream is `daglayer batch -stream`: ship every input to a
// daemon's POST /jobs/bulk?envelope=true as ndjson and write each result
// as its line streams back, in completion order. The envelope mode is
// what correlates a result to its input file (raw mode's lines are
// /layer bodies with no line number); the body inside the envelope is
// byte-identical to what /layer — and the local batch mode — would have
// produced.
func runBatchStream(ctx context.Context, addr, dir, outDir string, inputs []string, query url.Values, stdout io.Writer) error {
	dest := destNames(inputs)
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, name := range inputs {
		graph, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		query.Set("format", inputFormat(name))
		// Encode emits one compact JSON document plus '\n' — one ndjson line.
		if err := enc.Encode(map[string]string{"query": query.Encode(), "graph": string(graph)}); err != nil {
			return err
		}
	}

	u := strings.TrimSuffix(addr, "/") + "/jobs/bulk?envelope=true"
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, &body)
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		return fmt.Errorf("bulk request to %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("bulk request to %s: %s: %s", addr, resp.Status, strings.TrimSpace(string(msg)))
	}

	done, failed := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var res struct {
			Line       int             `json:"line"`
			State      string          `json:"state"`
			Error      string          `json:"error"`
			RetryAfter int             `json:"retry_after"`
			Body       json.RawMessage `json:"body"`
		}
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return fmt.Errorf("bad result line %q: %w", sc.Text(), err)
		}
		name := fmt.Sprintf("line %d", res.Line)
		if res.Line >= 1 && res.Line <= len(inputs) {
			name = inputs[res.Line-1]
		}
		if res.State == "done" {
			// The envelope compacts the body; restore the trailing newline
			// the non-stream mode's result files carry.
			out := append(append([]byte(nil), res.Body...), '\n')
			if err := os.WriteFile(filepath.Join(outDir, dest[name]), out, 0o644); err != nil {
				return err
			}
			done++
			fmt.Fprintf(stdout, "%-30s ok     %s\n", name, summarize(out))
			continue
		}
		failed++
		reason := res.Error
		if res.RetryAfter > 0 {
			reason = fmt.Sprintf("%s (retry in %ds)", res.Error, res.RetryAfter)
		}
		fmt.Fprintf(stdout, "%-30s FAILED %s\n", name, reason)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading bulk results: %w", err)
	}
	fmt.Fprintf(stdout, "batch: %d/%d layered (streamed via %s)\n", done, len(inputs), addr)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("batch interrupted: %w", err)
	}
	if failed > 0 || done != len(inputs) {
		return fmt.Errorf("%d of %d inputs failed", len(inputs)-done, len(inputs))
	}
	return nil
}

// summarize renders the one-line metrics digest of a result body for the
// progress table.
func summarize(body []byte) string {
	var resp struct {
		Graph   struct{ Vertices, Edges int }
		Metrics struct {
			Height    int     `json:"height"`
			WidthIncl float64 `json:"width_incl"`
		}
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "?"
	}
	return fmt.Sprintf("n=%d m=%d H=%d W=%.1f",
		resp.Graph.Vertices, resp.Graph.Edges, resp.Metrics.Height, resp.Metrics.WidthIncl)
}
