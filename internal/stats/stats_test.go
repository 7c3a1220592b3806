package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("Mean wrong")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("StdDev single != 0")
	}
	if !almost(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Fatalf("StdDev = %g, want 2", StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("Median(nil)")
	}
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Fatal("odd median")
	}
	if !almost(Median([]float64{4, 1, 2, 3}), 2.5) {
		t.Fatal("even median")
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Fatal("Median sorted its input")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty Min/Max")
	}
}

func TestMinLEMedianLEMax(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			// Skip non-finite and near-overflow values: averaging two
			// ~1e308 medians overflows, which is outside the harness's
			// domain (metrics are small positive numbers).
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		m := Median(xs)
		return Min(xs) <= m && m <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFigureTable(t *testing.T) {
	f := Figure{
		Title:  "Fig X",
		XLabel: "n",
		YLabel: "width",
		X:      []int{10, 20},
		Series: []Series{
			{Name: "LPL", Y: []float64{5, 9.5}},
			{Name: "AntColony", Y: []float64{4, 8}},
		},
	}
	var buf bytes.Buffer
	if err := f.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig X", "LPL", "AntColony", "9.50", "20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestSeriesByName(t *testing.T) {
	f := Figure{Series: []Series{{Name: "a"}, {Name: "b"}}}
	if f.SeriesByName("b") == nil || f.SeriesByName("zz") != nil {
		t.Fatal("SeriesByName lookup wrong")
	}
}

func TestWriteAlignedWidths(t *testing.T) {
	var buf bytes.Buffer
	err := WriteAligned(&buf, []string{"a", "long-header"}, [][]string{{"wide-cell", "1"}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All lines align to the same width (leading padding included).
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Fatalf("misaligned table:\n%s", buf.String())
	}
}
