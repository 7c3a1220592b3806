package dot

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"antlayer/internal/dag"
)

func TestReadBasic(t *testing.T) {
	n, err := ReadString(`digraph G { a -> b; b -> c; a -> c; }`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Graph.N() != 3 || n.Graph.M() != 3 {
		t.Fatalf("n=%d m=%d, want 3, 3", n.Graph.N(), n.Graph.M())
	}
	a, b, c := n.ID["a"], n.ID["b"], n.ID["c"]
	if !n.Graph.HasEdge(a, b) || !n.Graph.HasEdge(b, c) || !n.Graph.HasEdge(a, c) {
		t.Fatal("edges missing")
	}
}

func TestReadEdgeChain(t *testing.T) {
	n, err := ReadString(`digraph { a -> b -> c -> d; }`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Graph.M() != 3 {
		t.Fatalf("chain m=%d, want 3", n.Graph.M())
	}
}

func TestReadAttributes(t *testing.T) {
	n, err := ReadString(`digraph {
		node [shape=box];
		a [label="Vertex A", width=2.5];
		b [width=0.5]
		a -> b [style=dotted];
	}`)
	if err != nil {
		t.Fatal(err)
	}
	a := n.ID["a"]
	if n.Graph.Label(a) != "Vertex A" {
		t.Fatalf("label = %q", n.Graph.Label(a))
	}
	if n.Graph.Width(a) != 2.5 {
		t.Fatalf("width = %g", n.Graph.Width(a))
	}
	if n.Graph.Width(n.ID["b"]) != 0.5 {
		t.Fatalf("width b = %g", n.Graph.Width(n.ID["b"]))
	}
}

func TestReadComments(t *testing.T) {
	n, err := ReadString(`
// leading comment
digraph { /* block
comment */ a -> b; # trailing
}`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Graph.M() != 1 {
		t.Fatalf("m=%d, want 1", n.Graph.M())
	}
}

// TestReadCommentsAndChains is the table-driven coverage of what benchmark
// corpora actually exercise: the three comment forms (//, #, /* */) in
// every position, and multi-edge chains mixed with attribute lists and
// numeric node ids.
func TestReadCommentsAndChains(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		wantN int
		wantM int
		edges [][2]string // named edges that must exist
	}{
		{
			name:  "line comment between statements",
			src:   "digraph {\na -> b; // tail comment\n// full-line comment\nb -> c;\n}",
			wantN: 3, wantM: 2,
			edges: [][2]string{{"a", "b"}, {"b", "c"}},
		},
		{
			name:  "line comment without trailing newline",
			src:   "digraph { a -> b; } // eof comment",
			wantN: 2, wantM: 1,
		},
		{
			name:  "hash comments",
			src:   "# preprocessor-style header\ndigraph {\na -> b # tail\n# between\nb -> c\n}",
			wantN: 3, wantM: 2,
			edges: [][2]string{{"a", "b"}, {"b", "c"}},
		},
		{
			name:  "hash comment without trailing newline",
			src:   "digraph { a -> b; } # eof",
			wantN: 2, wantM: 1,
		},
		{
			name:  "block comment inside an edge statement",
			src:   "digraph { a /* inline */ -> /* again */ b; }",
			wantN: 2, wantM: 1,
			edges: [][2]string{{"a", "b"}},
		},
		{
			name:  "multi-line block comment",
			src:   "digraph {\na -> b;\n/* spans\nseveral\nlines */\nb -> c;\n}",
			wantN: 3, wantM: 2,
		},
		{
			name:  "block comment inside an attribute list",
			src:   `digraph { a [label="A" /* why */ , width=2]; }`,
			wantN: 1, wantM: 0,
		},
		{
			name:  "chain with attribute list",
			src:   `digraph { a -> b -> c [style=dotted, weight=2]; }`,
			wantN: 3, wantM: 2,
			edges: [][2]string{{"a", "b"}, {"b", "c"}},
		},
		{
			name:  "chain of quoted and bare names",
			src:   `digraph { "n 1" -> mid -> "n 2"; }`,
			wantN: 3, wantM: 2,
			edges: [][2]string{{"n 1", "mid"}, {"mid", "n 2"}},
		},
		{
			name:  "unspaced numeric chain",
			src:   `digraph { 1->2->3; }`,
			wantN: 3, wantM: 2,
			edges: [][2]string{{"1", "2"}, {"2", "3"}},
		},
		{
			name:  "numeric ids with attributes and comments",
			src:   "digraph {\n0 [width=1.5]\n0->1 [weight=2] // chain tail\n}",
			wantN: 2, wantM: 1,
			edges: [][2]string{{"0", "1"}},
		},
		{
			name:  "scientific-notation width survives sign handling",
			src:   `digraph { a [width=1.5e+1]; a -> b; }`,
			wantN: 2, wantM: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := ReadString(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if n.Graph.N() != c.wantN || n.Graph.M() != c.wantM {
				t.Fatalf("n=%d m=%d, want %d, %d", n.Graph.N(), n.Graph.M(), c.wantN, c.wantM)
			}
			for _, e := range c.edges {
				u, ok := n.ID[e[0]]
				if !ok {
					t.Fatalf("vertex %q missing", e[0])
				}
				v, ok := n.ID[e[1]]
				if !ok {
					t.Fatalf("vertex %q missing", e[1])
				}
				if !n.Graph.HasEdge(u, v) {
					t.Fatalf("edge %q -> %q missing", e[0], e[1])
				}
			}
		})
	}
}

func TestReadQuotedNames(t *testing.T) {
	n, err := ReadString(`digraph { "node one" -> "node:two"; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.ID["node one"]; !ok {
		t.Fatal("quoted name not registered")
	}
	if _, ok := n.ID["node:two"]; !ok {
		t.Fatal("quoted name with punctuation not registered")
	}
}

func TestReadStrict(t *testing.T) {
	if _, err := ReadString(`strict digraph X { a -> b; }`); err != nil {
		t.Fatal(err)
	}
}

func TestReadRepeatedEdgeTolerated(t *testing.T) {
	n, err := ReadString(`digraph { a -> b; a -> b; }`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Graph.M() != 1 {
		t.Fatalf("m=%d, want 1 (duplicate collapsed)", n.Graph.M())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		``,
		`graph { a -- b; }`,          // undirected
		`digraph { a -> ; }`,         // missing target
		`digraph { a -> a; }`,        // self loop
		`digraph { a -> b`,           // missing brace
		`digraph { a [x] }`,          // malformed attr
		`digraph { } trailing`,       // trailing tokens
		`digraph { "unterminated`,    // unterminated string
		`digraph { a -> b; } }`,      // extra brace
		`digraph { a - b; }`,         // bad arrow
		`digraph { a [width=abc]; }`, // unparsable width value
	}
	for _, src := range cases {
		if _, err := ReadString(src); err == nil {
			t.Errorf("ReadString(%q) succeeded, want error", src)
		}
	}
}

// TestReadRefusesBadWidths: a NaN, infinite or negative width is refused
// with an error that names the node; width 0 keeps the default unit
// width.
func TestReadRefusesBadWidths(t *testing.T) {
	for _, w := range []string{"NaN", "Inf", "-Inf", "+Inf", "-5"} {
		src := `digraph { a; wide [width="` + w + `"]; a -> wide }`
		_, err := ReadString(src)
		if err == nil || !strings.Contains(err.Error(), `node "wide"`) {
			t.Errorf("width=%s: error %v, want a refusal naming node \"wide\"", w, err)
		}
	}
	n, err := ReadString(`digraph { a [width=0]; a -> b }`)
	if err != nil {
		t.Fatal(err)
	}
	if w := n.Graph.Width(n.ID["a"]); w != 1 {
		t.Errorf("width=0 reads as %g, want the unit width 1", w)
	}
}

func TestWriteRead(t *testing.T) {
	g := dag.New(4)
	g.SetLabel(0, "start")
	g.SetLabel(1, "a b") // requires quoting
	g.SetWidth(2, 3.5)
	g.MustAddEdge(3, 2)
	g.MustAddEdge(3, 1)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(1, 0)

	var buf bytes.Buffer
	if err := Write(&buf, g, "test"); err != nil {
		t.Fatal(err)
	}
	n, err := Read(&buf)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\noutput was:\n%s", err, buf.String())
	}
	if n.Graph.N() != 4 || n.Graph.M() != 4 {
		t.Fatalf("round trip: n=%d m=%d", n.Graph.N(), n.Graph.M())
	}
	// Width survives.
	found := false
	for v := 0; v < n.Graph.N(); v++ {
		if n.Graph.Width(v) == 3.5 {
			found = true
		}
	}
	if !found {
		t.Fatal("width lost in round trip")
	}
}

func TestWriteIsolatedVertex(t *testing.T) {
	g := dag.New(2)
	g.MustAddEdge(1, 0)
	g2 := dag.New(3) // vertex 2 isolated
	g2.MustAddEdge(1, 0)
	var buf bytes.Buffer
	if err := Write(&buf, g2, ""); err != nil {
		t.Fatal(err)
	}
	n, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n.Graph.N() != 3 {
		t.Fatalf("isolated vertex lost: n=%d", n.Graph.N())
	}
	_ = g
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(25)
		g := dag.New(n)
		for tries := 0; tries < n*2; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u < v {
				u, v = v, u
			}
			if !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, g, "r"); err != nil {
			t.Fatal(err)
		}
		parsed, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if parsed.Graph.N() != g.N() || parsed.Graph.M() != g.M() {
			t.Fatalf("round trip size mismatch: (%d,%d) vs (%d,%d)",
				parsed.Graph.N(), parsed.Graph.M(), g.N(), g.M())
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := dag.New(5)
	g.MustAddEdge(4, 2)
	g.MustAddEdge(3, 1)
	g.MustAddEdge(2, 0)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("edge list round trip changed graph")
	}
}

func TestEdgeListComments(t *testing.T) {
	src := "# corpus graph\n3 2\n\n2 1\n# mid comment\n1 0\n"
	g, err := ReadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"x y",
		"-1 2",
		"3 2\n1 1",      // self loop
		"3 5\n2 1",      // truncated
		"2 1\n5 0",      // out of range
		"2 2\n1 0\n1 0", // duplicate
	}
	for _, src := range cases {
		if _, err := ReadEdgeList(strings.NewReader(src)); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", src)
		}
	}
}

func TestNamedVertexReuse(t *testing.T) {
	n := NewNamed()
	a1 := n.Vertex("a")
	a2 := n.Vertex("a")
	if a1 != a2 {
		t.Fatal("Vertex created duplicate for same name")
	}
	b := n.Vertex("b")
	if b == a1 {
		t.Fatal("distinct names share a vertex")
	}
	if len(n.Names) != 2 || n.Names[a1] != "a" || n.Names[b] != "b" {
		t.Fatalf("Names = %v", n.Names)
	}
}

func TestQuoteIfNeeded(t *testing.T) {
	cases := map[string]string{
		"abc":  "abc",
		"a_b1": "a_b1",
		"1abc": `"1abc"`,
		"a b":  `"a b"`,
		"":     `""`,
		"a-b":  `"a-b"`,
	}
	for in, want := range cases {
		if got := quoteIfNeeded(in); got != want {
			t.Errorf("quoteIfNeeded(%q) = %s, want %s", in, got, want)
		}
	}
}
