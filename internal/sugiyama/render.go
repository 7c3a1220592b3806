package sugiyama

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteSVG renders the drawing as a standalone SVG document. Real vertices
// become labelled boxes, dummy vertices vanish into their edge polylines,
// and edges reversed during cycle removal are drawn dashed. The document
// is built in one buffer and written with one Write.
func (d *Drawing) WriteSVG(w io.Writer) error {
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

	points := 0
	for _, e := range d.Edges {
		points += len(e.Points)
	}
	b := make([]byte, 0, 256+64*len(d.Edges)+16*points+160*len(d.Nodes))
	b = append(b, `<svg xmlns="http://www.w3.org/2000/svg" width="`...)
	b = appendFixed(b, (maxX-minX)*scale+2*pad, 0)
	b = append(b, `" height="`...)
	b = appendFixed(b, maxY*scale+2*pad, 0)
	b = append(b, "\">\n<style>text{font:10px monospace;text-anchor:middle;dominant-baseline:central}</style>\n"...)

	for _, e := range d.Edges {
		b = append(b, `<polyline points="`...)
		for i, p := range e.Points {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(appendFixed(b, tx(p.X), 1), ',')
			b = appendFixed(b, ty(p.Y), 1)
		}
		b = append(b, `" fill="none" stroke="#555"`...)
		if e.Reversed {
			b = append(b, ` stroke-dasharray="4 2"`...)
		}
		b = append(b, "/>\n"...)
	}
	for _, n := range d.Nodes {
		if n.Dummy {
			continue
		}
		wpx := n.W * scale * 0.8
		hpx := 0.8 * scale
		b = append(b, `<rect x="`...)
		b = appendFixed(b, tx(n.X)-wpx/2, 1)
		b = append(b, `" y="`...)
		b = appendFixed(b, ty(n.Y)-hpx/2, 1)
		b = append(b, `" width="`...)
		b = appendFixed(b, wpx, 1)
		b = append(b, `" height="`...)
		b = appendFixed(b, hpx, 1)
		b = append(b, "\" rx=\"3\" fill=\"#e8f0fe\" stroke=\"#333\"/>\n<text x=\""...)
		b = appendFixed(b, tx(n.X), 1)
		b = append(b, `" y="`...)
		b = appendFixed(b, ty(n.Y), 1)
		b = append(b, `">`...)
		if n.Label == "" {
			b = strconv.AppendInt(b, int64(n.V), 10)
		} else {
			b = append(b, xmlEscaper.Replace(n.Label)...)
		}
		b = append(b, "</text>\n"...)
	}
	b = append(b, "</svg>\n"...)
	_, err := w.Write(b)
	return err
}

var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// appendFixed appends x with dec (0 or 1) digits after the point: the
// bytes of strconv.AppendFloat(b, x, 'f', dec, 64), which are fmt's %.0f
// and %.1f. For |x| < 2^52 it rounds x·10^dec to an integer, half to
// even, exactly in integer arithmetic — the rounding strconv performs on
// x's exact decimal expansion, without the multiprecision arithmetic;
// larger magnitudes, infinities and NaN take strconv itself.
func appendFixed(b []byte, x float64, dec int) []byte {
	if !(math.Abs(x) < 1<<52) {
		return strconv.AppendFloat(b, x, 'f', dec, 64)
	}
	bits := math.Float64bits(x)
	mant := bits & (1<<52 - 1)
	exp := int(bits>>52) & 0x7ff
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	// |x| = mant / 2^shift with shift ≥ 1, since |x| < 2^52.
	shift := uint(1075 - exp)
	scaled := mant
	if dec == 1 {
		scaled *= 10 // < 2^57
	}
	var q uint64 // scaled / 2^shift, rounded half to even
	if shift < 64 {
		q = scaled >> shift
		rem, half := scaled&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	if dec == 0 {
		return strconv.AppendUint(b, q, 10)
	}
	b = strconv.AppendUint(b, q/10, 10)
	return append(b, '.', byte('0'+q%10))
}

// WriteASCII renders a coarse text view: one text row per layer, top layer
// first, listing real vertices in drawing order with dummy vertices shown
// as '|'. It is meant for terminal inspection and examples, not precision.
func (d *Drawing) WriteASCII(w io.Writer) error {
	bw := bufio.NewWriter(w)
	h := 0
	for _, n := range d.Nodes {
		if n.Layer > h {
			h = n.Layer
		}
	}
	byLayer := make([][]Node, h+1)
	for _, n := range d.Nodes {
		byLayer[n.Layer] = append(byLayer[n.Layer], n)
	}
	for li := h; li >= 1; li-- {
		fmt.Fprintf(bw, "L%-3d ", li)
		for i, n := range byLayer[li] {
			if i > 0 {
				fmt.Fprint(bw, "  ")
			}
			if n.Dummy {
				fmt.Fprint(bw, "|")
				continue
			}
			label := n.Label
			if label == "" {
				label = fmt.Sprintf("%d", n.V)
			}
			fmt.Fprintf(bw, "[%s]", label)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "height=%d width=%.1f crossings=%d\n", d.Height, d.Width, d.Crossings)
	return bw.Flush()
}
