package experiments

// Small line charts and bar charts rendered as text, so benchtables and
// the examples can show the paper's figures — not just their numbers —
// directly in a terminal. The Plot methods in plots.go are the callers.

import (
	"fmt"
	"math"
	"strings"
)

// plotSeries is one named line of (X, Y) points; X must be ascending.
type plotSeries struct {
	Name string
	X, Y []float64
}

// plotMarkers are assigned to series in order.
var plotMarkers = []byte{'*', 'o', '+', 'x', '#', '@'}

// linePlot renders the series into a width x height character grid
// with a y-axis label column and an x-axis row. All series share axes
// scaled to the union of their ranges.
func linePlot(title string, series []plotSeries, width, height int) string {
	if width < 16 || height < 4 {
		panic(fmt.Sprintf("plot: grid %dx%d too small", width, height))
	}
	var xmin, xmax, ymin, ymax float64
	first := true
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			panic(fmt.Sprintf("plot: series %q has %d x for %d y", s.Name, len(s.X), len(s.Y)))
		}
		for i := range s.X {
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if first {
		return title + "\n(no data)\n"
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, m byte) {
		col := int((x - xmin) / (xmax - xmin) * float64(width-1))
		row := height - 1 - int((y-ymin)/(ymax-ymin)*float64(height-1))
		if col < 0 || col >= width || row < 0 || row >= height {
			return
		}
		if grid[row][col] != ' ' && grid[row][col] != m {
			grid[row][col] = '&' // overlap of different series
			return
		}
		grid[row][col] = m
	}
	for si, s := range series {
		m := plotMarkers[si%len(plotMarkers)]
		// Linear interpolation between points for a continuous trace.
		for i := 1; i < len(s.X); i++ {
			x0, y0, x1, y1 := s.X[i-1], s.Y[i-1], s.X[i], s.Y[i]
			steps := 2 * width
			for k := 0; k <= steps; k++ {
				f := float64(k) / float64(steps)
				plot(x0+f*(x1-x0), y0+f*(y1-y0), m)
			}
		}
		if len(s.X) == 1 {
			plot(s.X[0], s.Y[0], m)
		}
	}

	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	for r, row := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", ymax)
		case height - 1:
			label = fmt.Sprintf("%8.3g", ymin)
		}
		fmt.Fprintf(&sb, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&sb, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	fmt.Fprintf(&sb, "%s  %-*.3g%*.3g\n", strings.Repeat(" ", 8), width/2, xmin, width-width/2, xmax)
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", plotMarkers[si%len(plotMarkers)], s.Name))
	}
	fmt.Fprintf(&sb, "%s  %s\n", strings.Repeat(" ", 8), strings.Join(legend, "   "))
	return sb.String()
}

// barPlot renders a horizontal bar chart: one labeled bar per value,
// scaled to the maximum.
func barPlot(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("plot: %d labels for %d values", len(labels), len(values)))
	}
	if width < 10 {
		panic("plot: bar width too small")
	}
	maxV := 0.0
	maxLabel := 0
	for i, v := range values {
		if v < 0 {
			panic("plot: negative bar value")
		}
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	for i, v := range values {
		n := 0
		if maxV > 0 {
			n = int(v / maxV * float64(width))
		}
		fmt.Fprintf(&sb, "%-*s |%s %.4g\n", maxLabel, labels[i], strings.Repeat("=", n), v)
	}
	return sb.String()
}
