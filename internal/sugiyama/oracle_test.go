package sugiyama

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"antlayer/internal/dag"
	"antlayer/internal/layering"
)

// The drawing code the transpose-rule switch and the append-based SVG
// writer replaced, kept verbatim (methods turned into functions) as the
// oracles the differential tests compare against.

// oracleGreedySwitch repeatedly exchanges adjacent vertices within a layer when
// the exchange strictly reduces the total crossing count, until a full
// pass finds no improving swap. It returns the resulting crossing count.
// The O(e log e) recount per candidate swap is acceptable at the corpus
// sizes; passes are bounded to keep worst cases predictable.
func oracleGreedySwitch(o *Ordering, g *dag.Graph, l *layering.Layering, current int) int {
	for pass := 0; pass < 8; pass++ {
		improved := false
		for li := 1; li <= len(o.Order); li++ {
			row := o.Order[li-1]
			for i := 0; i+1 < len(row); i++ {
				before := oracleCrossingsAround(o, g, l, li)
				o.swap(li, i)
				after := oracleCrossingsAround(o, g, l, li)
				if after < before {
					current += after - before
					improved = true
					continue
				}
				o.swap(li, i) // revert
			}
		}
		if !improved {
			break
		}
	}
	return current
}

// oracleCrossingsAround counts the crossings in the (at most two) gaps adjacent
// to layer li — the only counts an intra-layer swap can change.
func oracleCrossingsAround(o *Ordering, g *dag.Graph, l *layering.Layering, li int) int {
	total := 0
	if li+1 <= len(o.Order) {
		total += oracleCrossingsBetween(o, g, l, li+1)
	}
	if li >= 2 {
		total += oracleCrossingsBetween(o, g, l, li)
	}
	return total
}

// oracleCrossingsBetween counts crossings of edges from layer li (upper) to layer
// li-1 using the standard sorted-endpoint inversion count.
func oracleCrossingsBetween(o *Ordering, g *dag.Graph, l *layering.Layering, li int) int {
	upper := o.Order[li-1]
	var targets []int
	for _, u := range upper {
		// Collect positions of the lower endpoints, grouped by upper
		// position, lower positions ascending within a group.
		var ts []int
		for _, v := range g.Succ(u) {
			if l.Layer(v) == li-1 {
				ts = append(ts, o.Pos[v])
			}
		}
		sort.Ints(ts)
		targets = append(targets, ts...)
	}
	return countInversions(targets)
}

// countInversions counts pairs i<j with a[i] > a[j] by merge sort.
func countInversions(a []int) int {
	if len(a) < 2 {
		return 0
	}
	buf := make([]int, len(a))
	work := append([]int(nil), a...)
	return mergeCount(work, buf)
}

func mergeCount(a, buf []int) int {
	n := len(a)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(a[:mid], buf[:mid]) + mergeCount(a[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if a[i] <= a[j] {
			buf[k] = a[i]
			i++
		} else {
			buf[k] = a[j]
			inv += mid - i
			j++
		}
		k++
	}
	copy(buf[k:], a[i:mid])
	copy(buf[k+mid-i:], a[j:])
	copy(a, buf[:n])
	return inv
}

// oracleWriteSVG renders the drawing as a standalone SVG document. Real vertices
// become labelled boxes, dummy vertices vanish into their edge polylines,
// and edges reversed during cycle removal are drawn dashed.
func oracleWriteSVG(d *Drawing, w io.Writer) error {
	const scale = 24.0
	const pad = 30.0
	minX, maxX := math.Inf(1), math.Inf(-1)
	maxY := 0.0
	for _, n := range d.Nodes {
		minX = math.Min(minX, n.X-n.W/2)
		maxX = math.Max(maxX, n.X+n.W/2)
		maxY = math.Max(maxY, n.Y)
	}
	if len(d.Nodes) == 0 {
		minX, maxX = 0, 0
	}
	tx := func(x float64) float64 { return (x-minX)*scale + pad }
	ty := func(y float64) float64 { return y*scale + pad }

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f">`+"\n",
		(maxX-minX)*scale+2*pad, maxY*scale+2*pad)
	fmt.Fprintln(bw, `<style>text{font:10px monospace;text-anchor:middle;dominant-baseline:central}</style>`)

	for _, e := range d.Edges {
		var b strings.Builder
		for i, p := range e.Points {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.1f,%.1f", tx(p.X), ty(p.Y))
		}
		dash := ""
		if e.Reversed {
			dash = ` stroke-dasharray="4 2"`
		}
		fmt.Fprintf(bw, `<polyline points="%s" fill="none" stroke="#555"%s/>`+"\n", b.String(), dash)
	}
	for _, n := range d.Nodes {
		if n.Dummy {
			continue
		}
		wpx := n.W * scale * 0.8
		hpx := 0.8 * scale
		fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" rx="3" fill="#e8f0fe" stroke="#333"/>`+"\n",
			tx(n.X)-wpx/2, ty(n.Y)-hpx/2, wpx, hpx)
		label := n.Label
		if label == "" {
			label = fmt.Sprintf("%d", n.V)
		}
		fmt.Fprintf(bw, `<text x="%.1f" y="%.1f">%s</text>`+"\n", tx(n.X), ty(n.Y), oracleEscapeXML(label))
	}
	fmt.Fprintln(bw, `</svg>`)
	return bw.Flush()
}

func oracleEscapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
