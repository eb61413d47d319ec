package experiments

import "fmt"

// Plot methods render each experiment as the figure the paper shows,
// as terminal line/bar charts. They complement the Table methods.

// Plot renders Figure 3's left panel (execution time vs disturbance).
func (r *Fig3Result) Plot() string {
	return linePlot(
		fmt.Sprintf("Figure 3: execution time (s) vs disturbance (%d phases)", r.Phases),
		[]plotSeries{{Name: "exec time", X: r.Duty, Y: r.Time}},
		60, 14)
}

// Plot renders Figure 7: normalized velocity profiles with and without
// wall forces over the near-wall half of the channel.
func (r *PhysicsResult) Plot() string {
	half := len(r.DistanceNM) / 2
	return linePlot(
		"Figure 7: normalized streamwise velocity vs distance from wall (nm)",
		[]plotSeries{
			{Name: "with wall forces", X: r.DistanceNM[:half], Y: r.VelForced[:half]},
			{Name: "no wall forces", X: r.DistanceNM[:half], Y: r.VelFree[:half]},
		}, 60, 16)
}

// PlotDensity renders Figure 6: near-wall component densities.
func (r *PhysicsResult) PlotDensity() string {
	// The near-wall 50 nm region, like the paper's Figure 6 panels.
	n := len(r.DistanceNM)
	cut := n
	for i, d := range r.DistanceNM {
		if d > 50 {
			cut = i
			break
		}
	}
	return linePlot(
		"Figure 6: densities (relative to bulk) vs distance from wall (nm)",
		[]plotSeries{
			{Name: "water", X: r.DistanceNM[:cut], Y: r.WaterDensity[:cut]},
			{Name: "air/vapor", X: r.DistanceNM[:cut], Y: r.AirDensity[:cut]},
		}, 60, 16)
}

// Plot renders Figure 8's left panel (speedup vs slow nodes).
func (r *Fig8Result) Plot() string {
	x := make([]float64, len(r.M))
	for i, m := range r.M {
		x[i] = float64(m)
	}
	return linePlot(
		fmt.Sprintf("Figure 8: speedup vs slow nodes (%d phases)", r.Phases),
		[]plotSeries{
			{Name: "remapping", X: x, Y: r.SpeedupFilt},
			{Name: "no remapping", X: x, Y: r.SpeedupNo},
		}, 60, 14)
}

// Plot renders Figure 9's scheme totals as bars.
func (r *Fig9Result) Plot() string {
	labels := make([]string, len(r.Schemes))
	values := make([]float64, len(r.Schemes))
	for i, s := range r.Schemes {
		labels[i] = s
		values[i] = r.Times[s]
	}
	return barPlot(
		fmt.Sprintf("Figure 9: execution time (s), node %d slow, %d phases", r.SlowNode, r.Phases),
		labels, values, 50)
}

// Plot renders Figure 10's four series.
func (r *Fig10Result) Plot() string {
	x := make([]float64, len(r.M))
	for i, m := range r.M {
		x[i] = float64(m)
	}
	series := make([]plotSeries, 0, len(r.Schemes))
	for _, s := range r.Schemes {
		series = append(series, plotSeries{Name: s, X: x, Y: r.Times[s]})
	}
	return linePlot(
		fmt.Sprintf("Figure 10: execution time (s) vs slow nodes (%d phases)", r.Phases),
		series, 60, 16)
}

// Plot renders Table 1 as per-scheme slowdown curves.
func (r *Table1Result) Plot() string {
	series := make([]plotSeries, 0, len(r.Schemes))
	for _, s := range r.Schemes {
		series = append(series, plotSeries{Name: s, X: r.SpikeLens, Y: r.Slowdown[s]})
	}
	return linePlot(
		fmt.Sprintf("Table 1: slowdown (%%) vs spike length (s), %d phases", r.Phases),
		series, 60, 14)
}
