package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const demoDOT = `digraph demo {
	a -> b; a -> c; b -> d; c -> d; c -> e; d -> f; e -> f;
}`

func TestRunEdgeListFormat(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-format", "edges", "-algo", "ns"},
		strings.NewReader("3 2\n2 1\n1 0\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "height:           3") {
		t.Fatalf("edge-list input mishandled:\n%s", out.String())
	}
	if err := run(context.Background(), []string{"-format", "bogus"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bogus format accepted")
	}
}

func TestRunEdgeListNamesDrawings(t *testing.T) {
	// Edge-list inputs have no node names; the CLI must fall back to v<N>
	// so the layer listing, the SVG and the rank-dot output all render
	// labelled vertices instead of empty strings.
	dir := t.TempDir()
	svg := filepath.Join(dir, "out.svg")
	rank := filepath.Join(dir, "rank.dot")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-format", "edges", "-algo", "lpl", "-svg", svg, "-rank-dot", rank, "-ascii"},
		strings.NewReader("3 2\n2 1\n1 0\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "v2") {
		t.Fatalf("layer listing missing v2:\n%s", out.String())
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ">v0<") {
		t.Fatalf("SVG missing v0 label:\n%s", data)
	}
	rankData, err := os.ReadFile(rank)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rankData), "v1 -> v0") {
		t.Fatalf("rank-dot missing named edge:\n%s", rankData)
	}
}

func TestRunFromStdin(t *testing.T) {
	for _, algo := range []string{"aco", "lpl", "minwidth", "cg", "ns"} {
		var out bytes.Buffer
		err := run(context.Background(), []string{"-algo", algo}, strings.NewReader(demoDOT), &out)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		s := out.String()
		if !strings.Contains(s, "height:") || !strings.Contains(s, "L1") {
			t.Fatalf("%s output missing metrics:\n%s", algo, s)
		}
	}
}

func TestRunWithPromote(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-algo", "lpl", "-promote"}, strings.NewReader(demoDOT), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "promote=true") {
		t.Fatal("promote flag not reflected")
	}
}

func TestRunFromFileWithSVG(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "g.dot")
	if err := os.WriteFile(in, []byte(demoDOT), 0o644); err != nil {
		t.Fatal(err)
	}
	svg := filepath.Join(dir, "out.svg")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", in, "-algo", "aco", "-svg", svg, "-ascii"}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatal("SVG file malformed")
	}
	if !strings.Contains(out.String(), "height=") {
		t.Fatal("ASCII drawing missing")
	}
}

func TestRunCompare(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-compare"}, strings.NewReader(demoDOT), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"lpl", "netsimplex", "aco", "dummies"} {
		if !strings.Contains(s, want) {
			t.Fatalf("comparison missing %q:\n%s", want, s)
		}
	}
	lines := strings.Count(s, "\n")
	if lines < 8 { // header + graph line + 6 algorithms
		t.Fatalf("comparison too short (%d lines):\n%s", lines, s)
	}
}

func TestRunRankDOT(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ranked.dot")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-algo", "lpl", "-rank-dot", out}, strings.NewReader(demoDOT), &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "rank=same") {
		t.Fatal("rank-dot output missing rank=same groups")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-algo", "nope"},
		{"-in", "/nonexistent/file.dot"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, strings.NewReader(demoDOT), new(bytes.Buffer)); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	if err := run(context.Background(), nil, strings.NewReader("garbage"), new(bytes.Buffer)); err == nil {
		t.Error("garbage DOT accepted")
	}
	if err := run(context.Background(), []string{"-bogus-flag"}, nil, new(bytes.Buffer)); err == nil {
		t.Error("bogus flag accepted")
	}
}

func TestRunCyclicInputViaACO(t *testing.T) {
	// daglayer layers directly (no cycle removal); cyclic input must be
	// rejected by the layerer.
	cyc := `digraph { a -> b; b -> a; }`
	if err := run(context.Background(), []string{"-algo", "lpl"}, strings.NewReader(cyc), new(bytes.Buffer)); err == nil {
		t.Fatal("cyclic input accepted")
	}
}

// TestRequestFlagsParsedLikeLayer: both modes parse their request flags
// with the daemon's parser, so they refuse what /layer refuses instead of
// quietly running the default archipelago.
func TestRequestFlagsParsedLikeLayer(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g.dot"), []byte(demoDOT), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{{"-islands", "-1"}, {"-migration-interval", "-3"}} {
		flags := append([]string{"-algo", "island", "-tours", "2"}, bad...)
		if err := run(context.Background(), flags, strings.NewReader(demoDOT), new(bytes.Buffer)); err == nil {
			t.Errorf("layer %v accepted", bad)
		}
		args := append(append([]string{"batch", "-out", t.TempDir()}, flags...), dir)
		if err := run(context.Background(), args, nil, new(bytes.Buffer)); err == nil {
			t.Errorf("batch %v accepted", bad)
		}
	}
}
