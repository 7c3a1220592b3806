// Package dot reads and writes graphs in a practical subset of the Graphviz
// DOT language and in a compact edge-list format.
//
// The DOT subset covers what graph-drawing benchmark corpora (such as the
// AT&T graphs the paper evaluated on) actually use: a single
// "digraph name { ... }" block containing node statements with optional
// [label="...", width=1.5] attribute lists and edge statements
// "a -> b -> c;". Subgraphs, ports and HTML labels are not supported.
package dot

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"antlayer/internal/dag"
)

// Named wraps a Graph together with the mapping between external node names
// and internal dense vertex identifiers.
type Named struct {
	Graph *dag.Graph
	// Names[v] is the external name of vertex v.
	Names []string
	// ID maps an external name to its vertex.
	ID map[string]int
}

// NewNamed returns an empty named graph.
func NewNamed() *Named {
	return &Named{Graph: dag.New(0), ID: map[string]int{}}
}

// Vertex returns the vertex for name, creating it on first use.
func (n *Named) Vertex(name string) int {
	if v, ok := n.ID[name]; ok {
		return v
	}
	v := n.Graph.AddVertex()
	n.Graph.SetLabel(v, name)
	n.Names = append(n.Names, name)
	n.ID[name] = v
	return v
}

// Write serialises g in DOT format. Vertex names are the graph labels when
// set and v<N> otherwise. Non-default widths are emitted as width attributes.
func Write(w io.Writer, g *dag.Graph, graphName string) error {
	if graphName == "" {
		graphName = "G"
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %s {\n", quoteIfNeeded(graphName))
	for v := 0; v < g.N(); v++ {
		var attrs []string
		if g.Label(v) != "" && g.Label(v) != nodeName(g, v) {
			attrs = append(attrs, fmt.Sprintf("label=%s", quoteIfNeeded(g.Label(v))))
		}
		if g.Width(v) != 1.0 {
			attrs = append(attrs, fmt.Sprintf("width=%s", strconv.FormatFloat(g.Width(v), 'g', -1, 64)))
		}
		if len(attrs) > 0 || (g.InDegree(v) == 0 && g.OutDegree(v) == 0) {
			fmt.Fprintf(bw, "\t%s", quoteIfNeeded(nodeName(g, v)))
			if len(attrs) > 0 {
				fmt.Fprintf(bw, " [%s]", strings.Join(attrs, ", "))
			}
			fmt.Fprintln(bw, ";")
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "\t%s -> %s;\n", quoteIfNeeded(nodeName(g, e.U)), quoteIfNeeded(nodeName(g, e.V)))
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// nodeName returns the external name used for v when writing.
func nodeName(g *dag.Graph, v int) string {
	if l := g.Label(v); l != "" {
		return l
	}
	return "v" + strconv.Itoa(v)
}

func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	plain := true
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				plain = false
			}
		default:
			plain = false
		}
		if !plain {
			break
		}
	}
	if plain {
		return s
	}
	// Minimal DOT quoting that round-trips through readQuoted: only the
	// backslash, the quote, newline and tab need escaping; all other
	// runes (including non-ASCII) pass through verbatim.
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Read parses DOT input and returns the named graph.
func Read(r io.Reader) (*Named, error) {
	toks, err := tokenize(r)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parse()
}

// ReadString is Read over a string.
func ReadString(s string) (*Named, error) {
	return Read(strings.NewReader(s))
}

// WriteEdgeList serialises g as "n m" followed by one "u v" line per edge.
// The format is the storage format of the benchmark corpus directory
// produced by cmd/corpusgen.
func WriteEdgeList(w io.Writer, g *dag.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", g.N(), g.M())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
	}
	return bw.Flush()
}

// MaxEdgeListVertices bounds the vertex count ReadEdgeList accepts, so a
// corrupt header cannot force a multi-gigabyte allocation.
const MaxEdgeListVertices = 1 << 22

// ReadEdgeList parses the edge-list format written by WriteEdgeList.
//
// Every non-blank line that does not start with '#' (after trimming
// Unicode space) is read as fmt.Sscanf(line, "%d %d") reads it, without
// fmt: an optional sign and ASCII digits, at least one space rune, an
// optional sign and digits, and anything after the second number
// ignored; a value outside int is refused. The first such line is the
// header "n m", each of the next m an edge "u v".
func ReadEdgeList(r io.Reader) (*dag.Graph, error) {
	return readEdgeList(r, nil)
}

func readEdgeList(r io.Reader, admit func(n int) error) (*dag.Graph, error) {
	sc := bufio.NewScanner(r)
	// The buffer starts at bufio's 4 KiB and grows on demand up to the
	// 4 MiB line cap.
	sc.Buffer(nil, 1<<22)
	line, err := nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("dot: edge list header: %w", err)
	}
	n, m, ok := scanPair(line)
	if !ok {
		return nil, fmt.Errorf("dot: bad edge list header %q: %w", line, pairError(line))
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
	if admit != nil {
		if err := admit(n); err != nil {
			return nil, err
		}
	}
	g := dag.New(n)
	for i := 0; i < m; i++ {
		line, err := nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("dot: edge %d/%d: %w", i+1, m, err)
		}
		u, v, ok := scanPair(line)
		if !ok {
			return nil, fmt.Errorf("dot: bad edge line %q: %w", line, pairError(line))
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ReadEdgeListNamed is ReadEdgeList plus the v<N> name synthesis shared
// by every consumer that renders or reports vertices: edge lists carry no
// names, so vertex v is named (and labelled) "v<N>", the same fallback
// Write uses. admit, when non-nil, sees the vertex count of a valid
// header before anything is allocated for it; an error from admit is
// returned as it is.
func ReadEdgeListNamed(r io.Reader, admit func(n int) error) (*dag.Graph, []string, error) {
	g, err := readEdgeList(r, admit)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, g.N())
	for v := range names {
		names[v] = "v" + strconv.Itoa(v)
		g.SetLabel(v, names[v])
	}
	return g, names, nil
}

// nextLine returns the next non-blank, non-comment line, trimmed. A read
// error (say an http.MaxBytesError) is returned as soon as the scanner
// has hit it, before the line it may have cut short is parsed.
func nextLine(sc *bufio.Scanner) ([]byte, error) {
	for sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		s := bytes.TrimSpace(sc.Bytes())
		if len(s) == 0 || s[0] == '#' {
			continue
		}
		return s, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// scanPair reads two integers from line, accepting exactly what
// fmt.Sscanf(string(line), "%d %d") accepts: see ReadEdgeList.
func scanPair(line []byte) (a, b int, ok bool) {
	a, rest, ok := scanInt(line)
	if !ok || spaceLen(rest) == 0 {
		return 0, 0, false
	}
	b, _, ok = scanInt(rest)
	return a, b, ok
}

// spaceLen is the byte length of the space rune b starts with, 0 if it
// starts with none. fmt's scanner and unicode.IsSpace share one set of
// space runes.
func spaceLen(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	r, size := rune(b[0]), 1
	if r >= utf8.RuneSelf {
		r, size = utf8.DecodeRune(b)
	}
	if unicode.IsSpace(r) {
		return size
	}
	return 0
}

// scanInt skips leading space runes, then reads an optional sign and at
// least one ASCII digit as an int, returning the bytes after them.
func scanInt(b []byte) (int, []byte, bool) {
	for n := spaceLen(b); n > 0; n = spaceLen(b) {
		b = b[n:]
	}
	i := 0
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		i++
	}
	digits := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == digits {
		return 0, nil, false
	}
	v, err := strconv.Atoi(string(b[:i]))
	return v, b[i:], err == nil
}

// pairError is the error fmt.Sscanf reports for a line scanPair refused:
// the refusal path alone formats through fmt, so a rejected line keeps
// the words it always had.
func pairError(line []byte) error {
	var a, b int
	_, err := fmt.Sscanf(string(line), "%d %d", &a, &b)
	return err
}
