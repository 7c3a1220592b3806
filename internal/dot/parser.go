package dot

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// token kinds for the DOT subset lexer.
type tokKind int

const (
	tokIdent tokKind = iota
	tokString
	tokNumber
	tokArrow  // ->
	tokLBrace // {
	tokRBrace // }
	tokLBrack // [
	tokRBrack // ]
	tokSemi   // ;
	tokComma  // ,
	tokEquals // =
	tokEOF
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return strconv.Quote(t.text)
}

// tokenize lexes the DOT subset: identifiers, quoted strings, numbers,
// punctuation, // and /* */ and # comments.
func tokenize(r io.Reader) ([]token, error) {
	br := bufio.NewReader(r)
	var toks []token
	line := 1
	for {
		c, _, err := br.ReadRune()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch {
		case c == '\n':
			line++
		case unicode.IsSpace(c):
		case c == '/':
			c2, _, err := br.ReadRune()
			if err != nil {
				return nil, fmt.Errorf("dot: line %d: stray '/'", line)
			}
			switch c2 {
			case '/':
				if err := skipLine(br); err != nil {
					return nil, err
				}
				line++
			case '*':
				n, err := skipBlockComment(br)
				if err != nil {
					return nil, fmt.Errorf("dot: line %d: %w", line, err)
				}
				line += n
			default:
				return nil, fmt.Errorf("dot: line %d: stray '/'", line)
			}
		case c == '#':
			if err := skipLine(br); err != nil {
				return nil, err
			}
			line++
		case c == '{':
			toks = append(toks, token{tokLBrace, "{", line})
		case c == '}':
			toks = append(toks, token{tokRBrace, "}", line})
		case c == '[':
			toks = append(toks, token{tokLBrack, "[", line})
		case c == ']':
			toks = append(toks, token{tokRBrack, "]", line})
		case c == ';':
			toks = append(toks, token{tokSemi, ";", line})
		case c == ',':
			toks = append(toks, token{tokComma, ",", line})
		case c == '=':
			toks = append(toks, token{tokEquals, "=", line})
		case c == '-':
			c2, _, err := br.ReadRune()
			if err != nil || c2 != '>' {
				return nil, fmt.Errorf("dot: line %d: expected '->' (undirected graphs unsupported)", line)
			}
			toks = append(toks, token{tokArrow, "->", line})
		case c == '"':
			s, n, err := readQuoted(br)
			if err != nil {
				return nil, fmt.Errorf("dot: line %d: %w", line, err)
			}
			toks = append(toks, token{tokString, s, line})
			line += n
		case unicode.IsLetter(c) || c == '_':
			s, err := readWhile(br, string(c), func(r rune) bool {
				return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
			})
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{tokIdent, s, line})
		case unicode.IsDigit(c) || c == '.':
			// A sign only continues the number directly after an exponent
			// marker: otherwise "1->2" would lex as the number "1-" and
			// break unspaced numeric edge chains.
			prev := c
			s, err := readWhile(br, string(c), func(r rune) bool {
				ok := unicode.IsDigit(r) || r == '.' || r == 'e' || r == 'E' ||
					((r == '+' || r == '-') && (prev == 'e' || prev == 'E'))
				prev = r
				return ok
			})
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{tokNumber, s, line})
		default:
			return nil, fmt.Errorf("dot: line %d: unexpected character %q", line, c)
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

func skipLine(br *bufio.Reader) error {
	_, err := br.ReadString('\n')
	if err == io.EOF {
		return nil
	}
	return err
}

func skipBlockComment(br *bufio.Reader) (lines int, err error) {
	prev := rune(0)
	for {
		c, _, err := br.ReadRune()
		if err != nil {
			return lines, errors.New("unterminated block comment")
		}
		if c == '\n' {
			lines++
		}
		if prev == '*' && c == '/' {
			return lines, nil
		}
		prev = c
	}
}

func readQuoted(br *bufio.Reader) (s string, lines int, err error) {
	var b strings.Builder
	for {
		c, _, err := br.ReadRune()
		if err != nil {
			return "", lines, errors.New("unterminated string")
		}
		switch c {
		case '"':
			return b.String(), lines, nil
		case '\\':
			c2, _, err := br.ReadRune()
			if err != nil {
				return "", lines, errors.New("unterminated string escape")
			}
			switch c2 {
			case 'n':
				b.WriteRune('\n')
			case 't':
				b.WriteRune('\t')
			default:
				b.WriteRune(c2)
			}
		case '\n':
			lines++
			b.WriteRune(c)
		default:
			b.WriteRune(c)
		}
	}
}

func readWhile(br *bufio.Reader, prefix string, ok func(rune) bool) (string, error) {
	var b strings.Builder
	b.WriteString(prefix)
	for {
		c, _, err := br.ReadRune()
		if err == io.EOF {
			return b.String(), nil
		}
		if err != nil {
			return "", err
		}
		if !ok(c) {
			if err := br.UnreadRune(); err != nil {
				return "", err
			}
			return b.String(), nil
		}
		b.WriteRune(c)
	}
}

// parser consumes the token stream for a single digraph block.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("dot: line %d: expected %s, found %s", t.line, what, t)
	}
	return t, nil
}

func (p *parser) parse() (*Named, error) {
	t := p.next()
	if t.kind == tokIdent && strings.EqualFold(t.text, "strict") {
		t = p.next()
	}
	if t.kind != tokIdent || !strings.EqualFold(t.text, "digraph") {
		return nil, fmt.Errorf("dot: line %d: expected 'digraph', found %s", t.line, t)
	}
	// Optional graph name.
	if k := p.peek().kind; k == tokIdent || k == tokString || k == tokNumber {
		p.next()
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	n := NewNamed()
	for {
		t := p.peek()
		switch t.kind {
		case tokRBrace:
			p.next()
			if p.peek().kind != tokEOF {
				return nil, fmt.Errorf("dot: line %d: trailing input after '}'", p.peek().line)
			}
			if err := n.Graph.Validate(); err != nil {
				return nil, err
			}
			return n, nil
		case tokEOF:
			return nil, fmt.Errorf("dot: line %d: missing '}'", t.line)
		case tokSemi:
			p.next()
		case tokIdent, tokString, tokNumber:
			if err := p.statement(n); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("dot: line %d: unexpected %s", t.line, t)
		}
	}
}

// statement parses a node statement, an edge chain, or a graph-attribute
// statement (graph/node/edge defaults, which are parsed and ignored).
func (p *parser) statement(n *Named) error {
	first := p.next()
	name := first.text
	if first.kind == tokIdent {
		switch strings.ToLower(name) {
		case "graph", "node", "edge":
			if p.peek().kind == tokLBrack {
				_, err := p.attrList()
				return err
			}
		}
	}
	// Edge chain a -> b -> c [attrs];
	if p.peek().kind == tokArrow {
		prev := n.Vertex(name)
		for p.peek().kind == tokArrow {
			p.next()
			t := p.next()
			if t.kind != tokIdent && t.kind != tokString && t.kind != tokNumber {
				return fmt.Errorf("dot: line %d: expected node name after '->', found %s", t.line, t)
			}
			cur := n.Vertex(t.text)
			if prev == cur {
				return fmt.Errorf("dot: line %d: self-loop on %q", t.line, t.text)
			}
			// Tolerate repeated edges in the input; keep the first.
			if !n.Graph.HasEdge(prev, cur) {
				if err := n.Graph.AddEdge(prev, cur); err != nil {
					return err
				}
			}
			prev = cur
		}
		if p.peek().kind == tokLBrack {
			if _, err := p.attrList(); err != nil {
				return err
			}
		}
		return nil
	}
	// Node statement with optional attributes.
	v := n.Vertex(name)
	if p.peek().kind == tokLBrack {
		attrs, err := p.attrList()
		if err != nil {
			return err
		}
		if label, ok := attrs["label"]; ok {
			n.Graph.SetLabel(v, label)
		}
		if ws, ok := attrs["width"]; ok {
			w, err := ParseWidth(ws)
			if err != nil {
				return fmt.Errorf("dot: bad width %q for node %q: %w", ws, name, err)
			}
			n.Graph.SetWidth(v, w)
		}
	}
	return nil
}

// ParseWidth reads a vertex or dummy-vertex width: a finite number >= 0.
// NaN would drop its layer out of every width maximum, infinities break
// the objective and the JSON answer, and a negative width has no meaning,
// so all three are refused.
func ParseWidth(s string) (float64, error) {
	w, err := strconv.ParseFloat(s, 64)
	if err == nil && !(w >= 0 && w <= math.MaxFloat64) {
		err = errors.New("want a finite number >= 0")
	}
	return w, err
}

func (p *parser) attrList() (map[string]string, error) {
	if _, err := p.expect(tokLBrack, "'['"); err != nil {
		return nil, err
	}
	attrs := map[string]string{}
	for {
		t := p.next()
		if t.kind == tokRBrack {
			return attrs, nil
		}
		if t.kind != tokIdent && t.kind != tokString {
			return nil, fmt.Errorf("dot: line %d: expected attribute name, found %s", t.line, t)
		}
		if _, err := p.expect(tokEquals, "'='"); err != nil {
			return nil, err
		}
		val := p.next()
		if val.kind != tokIdent && val.kind != tokString && val.kind != tokNumber {
			return nil, fmt.Errorf("dot: line %d: expected attribute value, found %s", val.line, val)
		}
		attrs[strings.ToLower(t.text)] = val.text
		if p.peek().kind == tokComma || p.peek().kind == tokSemi {
			p.next()
		}
	}
}
