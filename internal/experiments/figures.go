package experiments

import (
	"fmt"

	"antlayer/internal/stats"
)

// metric extracts one criterion from a Measurement.
type metric struct {
	label string
	get   func(Measurement) float64
}

var (
	metricWidthIncl = metric{"Width (including Dummy Vertices)", func(m Measurement) float64 { return m.WidthIncl }}
	metricWidthExcl = metric{"Width (excluding Dummy Vertices)", func(m Measurement) float64 { return m.WidthExcl }}
	metricHeight    = metric{"Height (number of layers)", func(m Measurement) float64 { return m.Height }}
	metricDummies   = metric{"Number of dummy vertices", func(m Measurement) float64 { return m.Dummies }}
	metricDensity   = metric{"Edge Density", func(m Measurement) float64 { return m.EdgeDensity }}
	metricTime      = metric{"Running Time (ms)", func(m Measurement) float64 { return m.Millis }}
)

// lplSet and mwSet are the two algorithm triples the paper plots.
var (
	lplSet = []string{NameLPL, NameLPLPL, NameAntColony}
	mwSet  = []string{NameMinWidth, NameMinWidthPL, NameAntColony}
)

// figure assembles one plot of a paper figure from the results.
func (r *Results) figure(title string, names []string, m metric) stats.Figure {
	f := stats.Figure{
		Title:  title,
		XLabel: "Vertex count",
		YLabel: m.label,
		X:      append([]int(nil), r.X...),
	}
	for _, name := range names {
		means, ok := r.Mean[name]
		if !ok {
			continue
		}
		ys := make([]float64, len(means))
		for i, mm := range means {
			ys[i] = m.get(mm)
		}
		f.Series = append(f.Series, stats.Series{Name: name, Y: ys})
	}
	return f
}

// Figure returns the two plots of paper figure n (4..9). Each paper figure
// stacks two plots:
//
//	Fig 4: width incl./excl. dummies — LPL set
//	Fig 5: width incl./excl. dummies — MinWidth set
//	Fig 6: height and DVC — LPL set
//	Fig 7: height and DVC — MinWidth set
//	Fig 8: edge density and running time — LPL set
//	Fig 9: edge density and running time — MinWidth set
func (r *Results) Figure(n int) ([2]stats.Figure, error) {
	var out [2]stats.Figure
	switch n {
	case 4:
		out[0] = r.figure("Fig 4a: Width of Ant Colony vs LPL and LPL+PL", lplSet, metricWidthIncl)
		out[1] = r.figure("Fig 4b: Width of Ant Colony vs LPL and LPL+PL", lplSet, metricWidthExcl)
	case 5:
		out[0] = r.figure("Fig 5a: Width of Ant Colony vs MinWidth and MinWidth+PL", mwSet, metricWidthIncl)
		out[1] = r.figure("Fig 5b: Width of Ant Colony vs MinWidth and MinWidth+PL", mwSet, metricWidthExcl)
	case 6:
		out[0] = r.figure("Fig 6a: Height of Ant Colony vs LPL and LPL+PL", lplSet, metricHeight)
		out[1] = r.figure("Fig 6b: DVC of Ant Colony vs LPL and LPL+PL", lplSet, metricDummies)
	case 7:
		out[0] = r.figure("Fig 7a: Height of Ant Colony vs MinWidth and MinWidth+PL", mwSet, metricHeight)
		out[1] = r.figure("Fig 7b: DVC of Ant Colony vs MinWidth and MinWidth+PL", mwSet, metricDummies)
	case 8:
		out[0] = r.figure("Fig 8a: Edge density of Ant Colony vs LPL and LPL+PL", lplSet, metricDensity)
		out[1] = r.figure("Fig 8b: Running time of Ant Colony vs LPL and LPL+PL", lplSet, metricTime)
	case 9:
		out[0] = r.figure("Fig 9a: Edge density of Ant Colony vs MinWidth and MinWidth+PL", mwSet, metricDensity)
		out[1] = r.figure("Fig 9b: Running time of Ant Colony vs MinWidth and MinWidth+PL", mwSet, metricTime)
	default:
		return out, fmt.Errorf("experiments: no figure %d (paper figures are 4..9)", n)
	}
	return out, nil
}
