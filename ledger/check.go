package main

import (
	"encoding/json"
	"fmt"

	"antlayer/internal/layering"
)

// answer is the part of a /layer body the checks and the quality metric
// read.
type answer struct {
	Metrics struct {
		Height    int     `json:"height"`
		WidthIncl float64 `json:"width_incl"`
	} `json:"metrics"`
	Layers [][]string `json:"layers"`
	SVG    string     `json:"svg"`
}

// checkAnswer decodes a /layer body and checks it against the request:
// every vertex of the request graph sits in exactly one layer, every
// edge points to a lower layer (layering.New validates), and a rendered
// request carries its drawing.
func checkAnswer(r request, body []byte) (answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("body is not JSON: %v", err)
	}
	ref := r.graph
	assign := make([]int, len(ref.names))
	for i, layer := range a.Layers {
		for _, name := range layer {
			v, ok := ref.index[name]
			if !ok {
				return a, fmt.Errorf("layer %d holds unknown vertex %q", i+1, name)
			}
			if assign[v] != 0 {
				return a, fmt.Errorf("vertex %q appears in layers %d and %d", name, assign[v], i+1)
			}
			assign[v] = i + 1
		}
	}
	for v, l := range assign {
		if l == 0 {
			return a, fmt.Errorf("vertex %q is in no layer", ref.names[v])
		}
	}
	if _, err := layering.New(ref.g, assign); err != nil {
		return a, err
	}
	if r.render && a.SVG == "" {
		return a, fmt.Errorf("render=svg answered without a drawing")
	}
	return a, nil
}
