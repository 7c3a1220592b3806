package sugiyama

import (
	"cmp"
	"slices"

	"antlayer/internal/layering"
)

// refineCoordinates applies a priority-based relaxation (after Sugiyama,
// Tagawa, Toda 1981) to the packed initial coordinates: in alternating
// downward and upward sweeps every vertex moves as close as possible to
// the mean x of its neighbours on the reference layer. Vertices are
// processed in decreasing priority — dummy vertices first so long edges
// straighten, then real vertices by connectivity — and each move is
// clamped against the current positions of the immediate left and right
// neighbours, so the layer order (and therefore the crossing count) is
// preserved.
func refineCoordinates(proper *layering.Proper, ord *Ordering, x []float64, cfg Config, sweeps int) {
	h := proper.Layering.NumLayers()
	var queue []prioritised
	for s := 0; s < sweeps; s++ {
		for li := h - 1; li >= 1; li-- {
			queue = refineLayer(proper, ord, x, cfg, li, li+1, queue)
		}
		for li := 2; li <= h; li++ {
			queue = refineLayer(proper, ord, x, cfg, li, li-1, queue)
		}
	}
}

// prioritised is a row index with its vertex's priority.
type prioritised struct{ i, prio int }

// refineLayer repositions layer li (1-based) against reference layer ref.
// queue is scratch; refineLayer returns it for reuse.
func refineLayer(proper *layering.Proper, ord *Ordering, x []float64, cfg Config, li, ref int, queue []prioritised) []prioritised {
	g := proper.Graph
	l := proper.Layering
	row := ord.Order[li-1]
	queue = queue[:0]
	for i, v := range row {
		p := 0
		for _, w := range g.Succ(v) {
			if l.Layer(w) == ref {
				p++
			}
		}
		for _, w := range g.Pred(v) {
			if l.Layer(w) == ref {
				p++
			}
		}
		if proper.IsDummy[v] {
			p += g.N() // dummies dominate every real vertex
		}
		queue = append(queue, prioritised{i, p})
	}
	slices.SortStableFunc(queue, func(a, b prioritised) int { return cmp.Compare(b.prio, a.prio) })

	for _, q := range queue {
		i, v := q.i, row[q.i]
		desired, cnt := 0.0, 0
		for _, w := range g.Succ(v) {
			if l.Layer(w) == ref {
				desired += x[w]
				cnt++
			}
		}
		for _, w := range g.Pred(v) {
			if l.Layer(w) == ref {
				desired += x[w]
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		desired /= float64(cnt)
		// Clamp against the immediate neighbours' current positions.
		if i > 0 {
			left := row[i-1]
			min := x[left] + g.Width(left)/2 + cfg.HSpacing + g.Width(v)/2
			if desired < min {
				desired = min
			}
		}
		if i < len(row)-1 {
			right := row[i+1]
			max := x[right] - g.Width(right)/2 - cfg.HSpacing - g.Width(v)/2
			if desired > max {
				desired = max
			}
		}
		// A squeezed slot (min > max) keeps the current position.
		if i > 0 && i < len(row)-1 {
			left, right := row[i-1], row[i+1]
			min := x[left] + g.Width(left)/2 + cfg.HSpacing + g.Width(v)/2
			max := x[right] - g.Width(right)/2 - cfg.HSpacing - g.Width(v)/2
			if min > max {
				continue
			}
		}
		x[v] = desired
	}
	return queue
}
