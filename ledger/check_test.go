package main

import (
	"strings"
	"testing"
)

func TestCheckAnswer(t *testing.T) {
	// a -> b -> c and a -> c: a valid layering puts c lowest.
	r, err := newRequest("", []byte("digraph G { a -> b; b -> c; a -> c; }"))
	if err != nil {
		t.Fatal(err)
	}
	rendered := r
	rendered.render = true
	for _, tc := range []struct {
		name string
		r    request
		body string
		want string // substring of the error; "" = accepted
	}{
		{"valid", r, `{"layers":[["c"],["b"],["a"]]}`, ""},
		{"upward edge", r, `{"layers":[["a"],["b"],["c"]]}`, "invalid layer assignment"},
		{"edge within a layer", r, `{"layers":[["c"],["a","b"]]}`, "invalid layer assignment"},
		{"missing vertex", r, `{"layers":[["c"],["b"]]}`, `vertex "a" is in no layer`},
		{"vertex twice", r, `{"layers":[["c"],["b"],["a","c"]]}`, `vertex "c" appears in layers 1 and 3`},
		{"unknown vertex", r, `{"layers":[["c"],["b"],["a"],["z"]]}`, `unknown vertex "z"`},
		{"not JSON", r, `layers: c b a`, "not JSON"},
		{"render without drawing", rendered, `{"layers":[["c"],["b"],["a"]]}`, "without a drawing"},
		{"render with drawing", rendered, `{"layers":[["c"],["b"],["a"]],"svg":"<svg/>"}`, ""},
	} {
		_, err := checkAnswer(tc.r, []byte(tc.body))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
