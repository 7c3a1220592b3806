package dot

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"antlayer/internal/dag"
)

// TestParserNeverPanics feeds the tokenizer/parser random byte soup and
// asserts it fails gracefully (error or success, never a panic). The
// parser guards a CLI entry point, so robustness against hostile input is
// part of its contract.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	alphabet := []byte(`digraph{}[];,="->ab \n\t/**/#`)
	for i := 0; i < 500; i++ {
		n := rng.Intn(120)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", b, r)
				}
			}()
			_, _ = Read(bytes.NewReader(b))
		}()
	}
}

// TestEdgeListNeverPanics does the same for the edge-list reader.
func TestEdgeListNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	alphabet := []byte("0123456789 -\n#x")
	for i := 0; i < 500; i++ {
		n := rng.Intn(80)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("edge list reader panicked on %q: %v", b, r)
				}
			}()
			_, _ = ReadEdgeList(bytes.NewReader(b))
		}()
	}
}

// FuzzReadEdgeListNamed mirrors the DOT soup harness for the edge-list
// reader guarding the /layer, /jobs and `daglayer batch` entry points:
// whatever the bytes, the reader must return a clean error or a
// well-formed named graph, never panic — and exactly what the fmt-based
// reader it replaced returns (oracleReadEdgeListNamed): the same n and
// edge sequence, or the same error text. The seed corpus walks the
// documented failure modes — malformed lines, truncated bodies, duplicate
// edges and self-loops (which must error: dag.Graph rejects both), header
// lies — and the corners of fmt's "%d %d" grammar, so plain `go test`
// already exercises each rejection path, and
// `go test -fuzz=FuzzReadEdgeListNamed` explores from there.
func FuzzReadEdgeListNamed(f *testing.F) {
	for _, seed := range []string{
		"",                         // empty input: header missing
		"3 2\n2 1\n1 0\n",          // well-formed
		"# comment\n\n3 1\n2 0\n",  // comments and blank lines skipped
		"2 1\n1 1\n",               // self-loop must error
		"3 2\n2 1\n2 1\n",          // duplicate edge must error
		"2 1\n5 0\n",               // endpoint out of range
		"3 2\n2 1\n",               // truncated: fewer edges than claimed
		"3 99\n2 1\n1 0\n",         // header claims impossible edge count
		"-1 -1\n",                  // negative counts
		"99999999999999999999 1\n", // header overflow
		"3 2\n2 one\n1 0\n",        // non-numeric endpoint
		"x y\n",                    // non-numeric header
		// fmt accepts these: trailing bytes after the second number are
		// ignored, a sign is allowed, and any Unicode space separates.
		"3 1\n1 2 3\n",
		"3 1\n1 2x\n",
		"3 1\n1 0x2\n",
		"3 1\n+1 2\n",
		"3 1\n1\t2\n",
		"3 1\n1\u00a02\n",
		"3 1\n1\r2\n",
		"3\u30001\n2 0\n",
		// fmt refuses these: base prefixes, underscores, no space (also
		// before a sign), one number, and a value outside int.
		"3 1\n0x1 2\n",
		"3 1\n1_0 2\n",
		"3 1\n1,2\n",
		"2 1\n1+0\n",
		"3 1\n1\n",
		"3 1\n12345678901234567890 2\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		g, names, err := ReadEdgeListNamed(strings.NewReader(data), nil)
		og, onames, oerr := oracleReadEdgeListNamed(strings.NewReader(data))
		switch {
		case (err == nil) != (oerr == nil):
			t.Fatalf("error %v, the fmt reader's %v", err, oerr)
		case err != nil && err.Error() != oerr.Error():
			t.Fatalf("error %q, the fmt reader's %q", err, oerr)
		case err == nil && (g.N() != og.N() || !slices.Equal(g.Edges(), og.Edges()) || !slices.Equal(names, onames)):
			t.Fatalf("n=%d edges %v, the fmt reader's n=%d edges %v", g.N(), g.Edges(), og.N(), og.Edges())
		}
		if err != nil {
			if g != nil || names != nil {
				t.Fatalf("error %v alongside non-nil graph/names", err)
			}
			return
		}
		// A successful parse must uphold the contract every consumer
		// leans on: one synthesised v<N> name and label per vertex...
		if len(names) != g.N() {
			t.Fatalf("%d names for %d vertices", len(names), g.N())
		}
		for v, name := range names {
			if want := fmt.Sprintf("v%d", v); name != want || g.Label(v) != want {
				t.Fatalf("vertex %d named %q, labelled %q, want %q", v, name, g.Label(v), want)
			}
		}
		// ...a simple graph (no self-loops, no duplicates)...
		seen := map[[2]int]bool{}
		for _, e := range g.Edges() {
			if e.U == e.V {
				t.Fatalf("self-loop (%d,%d) survived", e.U, e.V)
			}
			if seen[[2]int{e.U, e.V}] {
				t.Fatalf("duplicate edge (%d,%d) survived", e.U, e.V)
			}
			seen[[2]int{e.U, e.V}] = true
		}
		// ...and a round trip through the writer.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", h.N(), h.M(), g.N(), g.M())
		}
	})
}

// oracleReadEdgeListNamed is the fmt.Sscanf-based edge-list reader
// ReadEdgeListNamed replaced, kept verbatim as FuzzReadEdgeListNamed's
// reference for what the format accepts and the words it refuses with.
func oracleReadEdgeListNamed(r io.Reader) (*dag.Graph, []string, error) {
	g, err := oracleReadEdgeList(r)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, g.N())
	for v := range names {
		names[v] = fmt.Sprintf("v%d", v)
		g.SetLabel(v, names[v])
	}
	return g, names, nil
}

func oracleReadEdgeList(r io.Reader) (*dag.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line, err := oracleNextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("dot: edge list header: %w", err)
	}
	var n, m int
	if _, err := fmt.Sscanf(line, "%d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("dot: bad edge list header %q: %w", line, err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("dot: negative counts in header %q", line)
	}
	if n > MaxEdgeListVertices {
		return nil, fmt.Errorf("dot: header claims %d vertices, limit %d", n, MaxEdgeListVertices)
	}
	if max := n * (n - 1) / 2; m > max {
		return nil, fmt.Errorf("dot: header claims %d edges, simple-DAG maximum for n=%d is %d", m, n, max)
	}
	g := dag.New(n)
	for i := 0; i < m; i++ {
		line, err := oracleNextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("dot: edge %d/%d: %w", i+1, m, err)
		}
		var u, v int
		if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("dot: bad edge line %q: %w", line, err)
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func oracleNextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", err
		}
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		return s, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// FuzzRead is the DOT reader's harness for the /layer, /jobs and
// `daglayer` entry points: whatever the bytes, Read returns an error or a
// named graph whose Names and ID agree and whose every width is finite
// and >= 0. When the names Write would emit are unique, a Write → Read
// round trip keeps the vertex and edge counts, every width and every edge
// by name.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"",
		"digraph { a -> b; b -> c; a -> c; }",
		"strict digraph G { a [label=\"x y\", width=2.5]; a -> b -> c [color=red]; }",
		"digraph { \"\" -> a; b; }",              // empty name: written as v<N>
		"digraph { a [label=b]; b; a -> b; }",    // label collides with a name
		"digraph { a [width=\"NaN\"]; a -> b; }", // non-finite width
		"digraph { a [width=\"-Inf\"]; }",
		"digraph { a [width=-1]; }",
		"digraph { a [width=0]; }",
		"digraph { // comment\n a -> b; /* block */ # line\n }",
		"digraph { node [shape=box]; a -> a; }", // self-loop
		"digraph { a -> b; b -> a; }",           // cycle: allowed, not a DAG check
		"digraph { a -> }",
		"digraph { a -> b; } trailing",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		n, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		g := n.Graph
		if len(n.Names) != g.N() || len(n.ID) != g.N() {
			t.Fatalf("%d names, %d IDs for %d vertices", len(n.Names), len(n.ID), g.N())
		}
		for v, name := range n.Names {
			if n.ID[name] != v {
				t.Fatalf("vertex %d named %q, but ID[%q] = %d", v, name, name, n.ID[name])
			}
			if w := g.Width(v); !(w >= 0 && w <= math.MaxFloat64) {
				t.Fatalf("vertex %q accepted with width %g", name, w)
			}
		}

		written := make(map[string]int, g.N())
		for v := 0; v < g.N(); v++ {
			written[nodeName(g, v)] = v
		}
		if len(written) != g.N() {
			return // two vertices would be written under one name
		}
		var buf bytes.Buffer
		if err := Write(&buf, g, "fuzz"); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		h := back.Graph
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", h.N(), h.M(), g.N(), g.M())
		}
		for name, v := range written {
			w, ok := back.ID[name]
			if !ok {
				t.Fatalf("vertex %q lost in round trip", name)
			}
			if a, b := g.Width(v), h.Width(w); a != b {
				t.Fatalf("vertex %q: width %g, want %g", name, b, a)
			}
		}
		for _, e := range g.Edges() {
			u, v := back.ID[nodeName(g, e.U)], back.ID[nodeName(g, e.V)]
			if !h.HasEdge(u, v) {
				t.Fatalf("edge %q -> %q lost in round trip", nodeName(g, e.U), nodeName(g, e.V))
			}
		}
	})
}

// TestLabelRoundTripQuick writes graphs whose labels contain arbitrary
// strings and checks they survive the DOT round trip.
func TestLabelRoundTripQuick(t *testing.T) {
	f := func(label string) bool {
		// The writer emits quoted strings; control characters other than
		// \n and \t are outside the supported subset.
		for _, r := range label {
			if r < 0x20 && r != '\n' && r != '\t' {
				return true
			}
		}
		g := dag.New(2)
		g.MustAddEdge(1, 0)
		g.SetLabel(0, label)
		var buf bytes.Buffer
		if err := Write(&buf, g, "q"); err != nil {
			return false
		}
		parsed, err := Read(&buf)
		if err != nil {
			return false
		}
		if label == "" {
			return true // empty labels fall back to generated names
		}
		for v := 0; v < parsed.Graph.N(); v++ {
			if parsed.Graph.Label(v) == label {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
