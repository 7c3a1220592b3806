package experiments

import (
	"context"
	"fmt"
	"io"

	"antlayer/internal/core"
	"antlayer/internal/dag"
	"antlayer/internal/layering"
	"antlayer/internal/stats"
)

// AblationVariant names one colony configuration of an ablation study.
type AblationVariant struct {
	Name   string
	Mutate func(*core.Params)
}

// AblationResult is the mean measurement of one variant over the corpus
// sample, flattened across groups.
type AblationResult struct {
	Name string
	Mean Measurement
}

// SelectionAblation compares the paper's argmax layer choice against
// classic roulette sampling (DESIGN.md E9).
func SelectionAblation(opts Options) ([]AblationResult, error) {
	return RunAblation(opts, []AblationVariant{
		{"pseudo-random q0=0.9 (default)", func(p *core.Params) { p.Selection = core.SelectPseudoRandom; p.Q0 = 0.9 }},
		{"argmax (literal Alg. 4)", func(p *core.Params) { p.Selection = core.SelectArgMax }},
		{"roulette (Ant System)", func(p *core.Params) { p.Selection = core.SelectRoulette }},
	})
}

// StretchAblation compares inserting the new layers between the LPL layers
// (paper Fig. 2) against stacking them above and below (paper Fig. 1).
func StretchAblation(opts Options) ([]AblationResult, error) {
	return RunAblation(opts, []AblationVariant{
		{"between (paper)", func(p *core.Params) { p.Stretch = core.StretchBetween }},
		{"ends", func(p *core.Params) { p.Stretch = core.StretchEnds }},
	})
}

// HeuristicAblation compares the objective-delta heuristic (default, see
// core.HeuristicObjective) against the literal layer-width reciprocal of
// the paper's §IV-D formula.
func HeuristicAblation(opts Options) ([]AblationResult, error) {
	return RunAblation(opts, []AblationVariant{
		{"objective-delta (default)", func(p *core.Params) { p.Heuristic = core.HeuristicObjective }},
		{"layer-width (literal §IV-D)", func(p *core.Params) { p.Heuristic = core.HeuristicLayerWidth }},
	})
}

// RunAblation evaluates each variant of the colony over the corpus sample
// and returns per-variant means across all graphs.
func RunAblation(opts Options, variants []AblationVariant) ([]AblationResult, error) {
	opts = opts.normalized()
	var algos []Algorithm
	for _, v := range variants {
		v := v
		algos = append(algos, Algorithm{
			Name: v.Name,
			Layer: func(g *dag.Graph, seed int64) (*layering.Layering, error) {
				p := opts.ACO
				v.Mutate(&p)
				p.Seed = opts.ACO.Seed + seed
				return core.Layer(context.Background(), g, p)
			},
		})
	}
	res, err := RunAlgorithms(algos, opts)
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, v := range variants {
		means := res.Mean[v.Name]
		total := Measurement{}
		for _, m := range means {
			total.add(m)
		}
		if len(means) > 0 {
			total.scale(1 / float64(len(means)))
		}
		out = append(out, AblationResult{Name: v.Name, Mean: total})
	}
	return out, nil
}

// WriteAblationTable formats ablation results.
func WriteAblationTable(w io.Writer, title string, results []AblationResult) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	headers := []string{"variant", "width incl", "width excl", "height", "dummies", "density", "ms"}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.2f", r.Mean.WidthIncl),
			fmt.Sprintf("%.2f", r.Mean.WidthExcl),
			fmt.Sprintf("%.2f", r.Mean.Height),
			fmt.Sprintf("%.2f", r.Mean.Dummies),
			fmt.Sprintf("%.2f", r.Mean.EdgeDensity),
			fmt.Sprintf("%.3f", r.Mean.Millis),
		})
	}
	return stats.WriteAligned(w, headers, rows)
}
