package experiments

import (
	"strings"
	"testing"
)

func TestLineBasics(t *testing.T) {
	out := linePlot("test", []plotSeries{
		{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	}, 40, 10)
	if !strings.HasPrefix(out, "test\n") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "o down") {
		t.Error("legend missing")
	}
	lines := strings.Split(out, "\n")
	// title + height rows + axis + x labels + legend + trailing empty.
	if len(lines) != 1+10+3+1 {
		t.Errorf("output has %d lines", len(lines))
	}
	// The rising series hits the top-right region, the falling one the
	// top-left.
	top := lines[1]
	if !strings.Contains(top, "*") || !strings.Contains(top, "o") {
		t.Errorf("top row missing extremes: %q", top)
	}
	// Crossing point is marked as overlap or one of the plotMarkers.
	if !strings.Contains(out, "&") && strings.Count(out, "*") == 0 {
		t.Error("no crossing rendered")
	}
}

func TestLineDegenerateInputs(t *testing.T) {
	out := linePlot("empty", nil, 40, 8)
	if !strings.Contains(out, "no data") {
		t.Error("empty plot not flagged")
	}
	// Single point and constant series must not panic or divide by zero.
	out = linePlot("point", []plotSeries{{Name: "p", X: []float64{1}, Y: []float64{5}}}, 40, 8)
	if !strings.Contains(out, "*") {
		t.Error("single point not rendered")
	}
	out = linePlot("flat", []plotSeries{{Name: "f", X: []float64{0, 1}, Y: []float64{3, 3}}}, 40, 8)
	if !strings.Contains(out, "*") {
		t.Error("flat series not rendered")
	}
}

func TestLinePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"tiny grid": func() { linePlot("t", nil, 4, 2) },
		"mismatch":  func() { linePlot("t", []plotSeries{{Name: "s", X: []float64{1}, Y: nil}}, 40, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBars(t *testing.T) {
	out := barPlot("times", []string{"filtered", "none"}, []float64{322, 726}, 30)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	barLen := func(s string) int { return strings.Count(s, "=") }
	if barLen(lines[1]) >= barLen(lines[2]) {
		t.Errorf("bar lengths not proportional:\n%s", out)
	}
	if !strings.Contains(lines[2], "726") {
		t.Error("value label missing")
	}
	// Zero values render as empty bars.
	out = barPlot("z", []string{"a"}, []float64{0}, 30)
	if strings.Contains(out, "=") {
		t.Error("zero value rendered a bar")
	}
}

func TestBarsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatch": func() { barPlot("t", []string{"a"}, []float64{1, 2}, 30) },
		"negative": func() { barPlot("t", []string{"a"}, []float64{-1}, 30) },
		"narrow":   func() { barPlot("t", []string{"a"}, []float64{1}, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
