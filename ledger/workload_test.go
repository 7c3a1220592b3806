package main

import (
	"bytes"
	"net/url"
	"strings"
	"testing"
)

func TestWorkloadsAreDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		c, _ := newWorkload(name, 8)
		differs := false
		for i := 0; i < 3*verifyLen; i++ {
			ra, rb, rc := a.next(i), b.next(i), c.next(i)
			if ra.query != rb.query || !bytes.Equal(ra.body, rb.body) {
				t.Fatalf("%s: request %d differs between two generations from seed 7", name, i)
			}
			if !bytes.Equal(ra.body, rc.body) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same graphs", name)
		}
	}
}

// pairKey names a request's (graph, colony seed) pair.
func pairKey(t *testing.T, r request) string {
	t.Helper()
	q, err := url.ParseQuery(r.query)
	if err != nil {
		t.Fatal(err)
	}
	return "seed=" + q.Get("seed") + " " + canonical(r.graph.g, r.graph.names)
}

func TestComputingWorkloadsNeverRepeatAPair(t *testing.T) {
	for _, name := range []string{"cold-corpus", "edit-stream", "distributed"} {
		for seed := int64(1); seed <= 10; seed++ {
			w, err := newWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]int{}
			for i := 0; i < 4*verifyLen; i++ {
				k := pairKey(t, w.next(i))
				if j, ok := seen[k]; ok {
					t.Fatalf("%s seed %d: requests %d and %d share a (graph, seed) pair", name, seed, j, i)
				}
				seen[k] = i
			}
		}
	}
}

func TestHotRepeatCyclesItsVerifyPass(t *testing.T) {
	w, err := newWorkload("hot-repeat", 7)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for i := 0; i < verifyLen; i++ {
		distinct[pairKey(t, w.next(i))] = true
		if a, b := w.next(i), w.next(i+5*verifyLen); a.query != b.query || a.key != b.key || !bytes.Equal(a.body, b.body) {
			t.Fatalf("request %d is not repeated one pass later", i)
		}
	}
	if len(distinct) != verifyLen {
		t.Fatalf("verify pass holds %d distinct pairs, want %d", len(distinct), verifyLen)
	}
}

func TestColdCorpusRendersOneRequestInEight(t *testing.T) {
	w, err := newWorkload("cold-corpus", 7)
	if err != nil {
		t.Fatal(err)
	}
	rendered := 0
	for i := 0; i < verifyLen; i++ {
		r := w.next(i)
		if r.render != strings.Contains(r.query, "render=svg") {
			t.Fatalf("request %d: render flag and query disagree: %q", i, r.query)
		}
		if r.render {
			rendered++
		}
	}
	if rendered != verifyLen/8 {
		t.Fatalf("%d of %d requests render, want %d", rendered, verifyLen, verifyLen/8)
	}
}
