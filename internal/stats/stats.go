// Package stats provides the aggregation and table formatting used by the
// experiment harness: per-group means over the corpus and aligned text
// tables mirroring the paper's figure series.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Median returns the median (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	mid := len(c) / 2
	if len(c)%2 == 1 {
		return c[mid]
	}
	return (c[mid-1] + c[mid]) / 2
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Series is one named line of a figure: Y[i] is the mean value for group i.
type Series struct {
	Name string
	Y    []float64
}

// Figure is a reproduced paper figure: per-group x values (vertex counts)
// and one series per algorithm.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	X      []int
	Series []Series
}

// SeriesByName returns the series with the given name, or nil.
func (f *Figure) SeriesByName(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// WriteTable writes the figure as an aligned text table, one row per x.
func (f *Figure) WriteTable(w io.Writer) error {
	headers := make([]string, 0, len(f.Series)+1)
	headers = append(headers, f.XLabel)
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	rows := make([][]string, len(f.X))
	for i, x := range f.X {
		row := make([]string, 0, len(headers))
		row = append(row, fmt.Sprintf("%d", x))
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%.2f", s.Y[i]))
		}
		rows[i] = row
	}
	if _, err := fmt.Fprintf(w, "%s (%s)\n", f.Title, f.YLabel); err != nil {
		return err
	}
	return WriteAligned(w, headers, rows)
}

// WriteAligned writes rows under headers with space-aligned columns.
func WriteAligned(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(headers)); err != nil {
		return err
	}
	var rule []string
	for _, wd := range widths {
		rule = append(rule, strings.Repeat("-", wd))
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}
