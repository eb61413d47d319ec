package experiments

import (
	"strings"
	"testing"
)

func smallSetup() ClusterSetup {
	s := PaperSetup()
	return s
}

func TestFig3ShapeAndTable(t *testing.T) {
	res, err := RunFig3(smallSetup(), 300, []float64{0, 0.3, 0.6, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead[0] != 0 {
		t.Errorf("zero-duty overhead %.1f%%, want 0", res.Overhead[0])
	}
	for i := 1; i < len(res.Duty); i++ {
		if res.Time[i] < res.Time[i-1] {
			t.Errorf("time not monotone in duty at %v", res.Duty[i])
		}
	}
	// The knee: the last 40% of duty costs more than the first 60%.
	lowRise := res.Time[2] - res.Time[0]
	highRise := res.Time[3] - res.Time[2]
	if highRise < lowRise {
		t.Errorf("no knee: rise 0-60%% = %.1f, 60-100%% = %.1f", lowRise, highRise)
	}
	tab := res.Table()
	if !strings.Contains(tab, "Figure 3") || strings.Count(tab, "\n") < 6 {
		t.Errorf("table malformed:\n%s", tab)
	}
}

func TestFig8ShapeAndTable(t *testing.T) {
	res, err := RunFig8(smallSetup(), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeedupFilt[0] < 17 {
		t.Errorf("dedicated speedup %.2f, want ~18.4 (paper 18.97)", res.SpeedupFilt[0])
	}
	for i := 1; i < len(res.M); i++ {
		if res.SpeedupFilt[i] <= res.SpeedupNo[i] {
			t.Errorf("m=%d: filtered speedup %.2f <= no-remap %.2f", res.M[i], res.SpeedupFilt[i], res.SpeedupNo[i])
		}
		if res.EffFilt[i] < 0.6 {
			t.Errorf("m=%d: normalized efficiency %.2f below 0.6 (paper stays >= 0.8)", res.M[i], res.EffFilt[i])
		}
	}
	if !strings.Contains(res.Table(), "speedup(remap)") {
		t.Error("table missing header")
	}
}

func TestFig9SchemesAndProfiles(t *testing.T) {
	res, err := RunFig9(smallSetup(), 600)
	if err != nil {
		t.Fatal(err)
	}
	d, n := res.Times["dedicated"], res.Times["no-remap"]
	c, f := res.Times["conservative"], res.Times["filtered"]
	if !(d < f && f < c && c < n) {
		t.Errorf("scheme ordering broken: ded %.1f filt %.1f cons %.1f none %.1f", d, f, c, n)
	}
	// Paper anchors: dedicated ~251 s, no-remap ~717 s.
	if d < 230 || d > 280 {
		t.Errorf("dedicated %.1f s, want ~251", d)
	}
	if n < 640 || n > 800 {
		t.Errorf("no-remap %.1f s, want ~717", n)
	}
	if res.SlowNodePlanes["filtered"] > 3 {
		t.Errorf("filtered left %d planes on the slow node", res.SlowNodePlanes["filtered"])
	}
	if p := res.Profiles["filtered"]; p == nil || len(p.Nodes) != 20 {
		t.Fatal("missing filtered profile")
	}
	tab := res.Table()
	for _, want := range []string{"dedicated", "no-remap", "conservative", "filtered", "comp (s)"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := RunFig10(smallSetup(), 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.M); i++ {
		filt := res.Times["filtered"][i]
		if none := res.Times["none"][i]; filt >= none {
			t.Errorf("m=%d: filtered %.1f >= none %.1f", res.M[i], filt, none)
		}
		if cons := res.Times["conservative"][i]; filt >= cons {
			t.Errorf("m=%d: filtered %.1f >= conservative %.1f", res.M[i], filt, cons)
		}
	}
	// Global falls behind filtered once several nodes are slow.
	last := len(res.M) - 1
	if res.Times["global"][last] <= res.Times["filtered"][last] {
		t.Errorf("global %.1f <= filtered %.1f with %d slow nodes",
			res.Times["global"][last], res.Times["filtered"][last], res.M[last])
	}
	if !strings.Contains(res.Table(), "Figure 10") {
		t.Error("table header missing")
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := RunTable1(smallSetup(), 100, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range res.Schemes {
		sl := res.Slowdown[scheme]
		if sl[1] <= sl[0] {
			t.Errorf("%s: slowdown not increasing with spike length: %v", scheme, sl)
		}
		if sl[0] < 0 || sl[1] > 100 {
			t.Errorf("%s: implausible slowdowns %v", scheme, sl)
		}
	}
	if !strings.Contains(res.Table(), "Table 1") {
		t.Error("table header missing")
	}
}

func TestSpeedupCurve(t *testing.T) {
	res, err := RunSpeedupCurve(smallSetup(), 300, []int{1, 2, 4, 8, 16, 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.P); i++ {
		if res.Speedup[i] <= res.Speedup[i-1] {
			t.Errorf("speedup not increasing at P=%d: %v", res.P[i], res.Speedup)
		}
	}
	// Near-linear at 20 nodes (paper: 18.97).
	if s := res.Speedup[len(res.P)-1]; s < 17.5 || s > 20 {
		t.Errorf("20-node speedup %.2f, want ~18.5-19", s)
	}
	if got := res.Speedup[0]; got < 0.95 || got > 1.05 {
		t.Errorf("1-node speedup %.3f, want ~1", got)
	}
}

func TestSlipPhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("multicomponent physics run")
	}
	setup := PhysicsSetup{NX: 16, NY: 40, NZ: 10, Steps: 1500, SampleZ: 5}
	res, err := RunSlipPhysics(setup)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6: water depleted, air enriched at the wall.
	if res.WaterDensity[0] >= 0.97 {
		t.Errorf("no water depletion at wall: %.4f of bulk", res.WaterDensity[0])
	}
	if res.AirDensity[0] <= 1.03 {
		t.Errorf("no air enrichment at wall: %.4f of bulk", res.AirDensity[0])
	}
	// Figure 7: apparent slip with wall forces.
	if res.SlipPercent <= 0 {
		t.Errorf("no apparent slip: %.2f%%", res.SlipPercent)
	}
	// Profiles are normalized: centerline value 1.
	mid := len(res.VelForced) / 2
	if res.VelForced[mid] < 0.95 || res.VelForced[mid] > 1.05 {
		t.Errorf("normalized centerline velocity %.3f", res.VelForced[mid])
	}
	if !strings.Contains(res.Table(), "apparent slip") {
		t.Error("table missing slip line")
	}
	if !strings.HasPrefix(res.CSV(), "distance_nm,") {
		t.Error("CSV header missing")
	}
}

func TestAblations(t *testing.T) {
	setup := smallSetup()
	const phases = 300

	pred, err := RunAblationPredictors(setup, phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Rows) != 5 {
		t.Fatalf("predictor ablation has %d rows", len(pred.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range pred.Rows {
		byName[r.Name] = r
	}
	// The paper's argument: last-value prediction causes migration
	// oscillation under spiky load. On a spikes-only workload the ideal
	// movement is zero; last-value must churn several times more planes
	// than the harmonic mean.
	if h, l := byName["harmonic (paper)"].PlanesMoved, byName["last-value"].PlanesMoved; l < 3*h+10 {
		t.Errorf("last-value moved %d planes vs harmonic %d; oscillation argument not visible", l, h)
	}

	over, err := RunAblationOverRedistribution(setup, phases)
	if err != nil {
		t.Fatal(err)
	}
	if over.Rows[0].Time >= over.Rows[2].Time {
		t.Errorf("over-redistribution %.1f s >= conservative %.1f s", over.Rows[0].Time, over.Rows[2].Time)
	}

	lazy, err := RunAblationLaziness(setup, phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.Rows) != 9 {
		t.Fatalf("laziness ablation has %d rows", len(lazy.Rows))
	}

	thr, err := RunAblationThreshold(setup, phases)
	if err != nil {
		t.Fatal(err)
	}
	// No threshold => at least as much churn as the paper's threshold.
	if thr.Rows[0].PlanesMoved < thr.Rows[2].PlanesMoved {
		t.Errorf("zero threshold moved %d < one-plane threshold %d",
			thr.Rows[0].PlanesMoved, thr.Rows[2].PlanesMoved)
	}
	for _, r := range []*AblationResult{pred, over, lazy, thr} {
		if !strings.Contains(r.Table(), "configuration") {
			t.Errorf("%s: malformed table", r.Title)
		}
	}
}

func TestWallForceSensitivity(t *testing.T) {
	res, err := RunWallForceSensitivity(2, 40, 8, 1500,
		[]float64{0.05, 0.2, 0.4}, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d points, want 5", len(res.Points))
	}
	// Stronger wall force means more depletion and more slip,
	// monotonically over the amplitude sweep.
	for i := 1; i < 3; i++ {
		if res.Points[i].WaterWall >= res.Points[i-1].WaterWall {
			t.Errorf("depletion not monotone in amplitude: %+v", res.Points[:3])
		}
		if res.Points[i].SlipPercent <= res.Points[i-1].SlipPercent {
			t.Errorf("slip not monotone in amplitude: %+v", res.Points[:3])
		}
	}
	if !strings.Contains(res.Table(), "slip (%)") {
		t.Error("table header missing")
	}
}

func TestPlots(t *testing.T) {
	setup := smallSetup()
	fig3, err := RunFig3(setup, 100, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out := fig3.Plot(); !strings.Contains(out, "exec time") {
		t.Error("fig3 plot missing legend")
	}
	fig8, err := RunFig8(setup, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out := fig8.Plot(); !strings.Contains(out, "no remapping") {
		t.Error("fig8 plot missing legend")
	}
	fig9, err := RunFig9(setup, 100)
	if err != nil {
		t.Fatal(err)
	}
	if out := fig9.Plot(); !strings.Contains(out, "filtered") || !strings.Contains(out, "=") {
		t.Error("fig9 bars malformed")
	}
	fig10, err := RunFig10(setup, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out := fig10.Plot(); !strings.Contains(out, "conservative") {
		t.Error("fig10 plot missing legend")
	}
	t1, err := RunTable1(setup, 50, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if out := t1.Plot(); !strings.Contains(out, "global") {
		t.Error("table1 plot missing legend")
	}
	phys := &PhysicsResult{
		DistanceNM:   []float64{2.5, 7.5, 12.5, 17.5},
		WaterDensity: []float64{0.4, 0.7, 0.9, 1.0},
		AirDensity:   []float64{4, 2, 1.2, 1.0},
		VelForced:    []float64{0.2, 0.4, 0.6, 0.8},
		VelFree:      []float64{0.1, 0.35, 0.6, 0.8},
	}
	if out := phys.Plot(); !strings.Contains(out, "wall forces") {
		t.Error("fig7 plot missing legend")
	}
	if out := phys.PlotDensity(); !strings.Contains(out, "air/vapor") {
		t.Error("fig6 plot missing legend")
	}
}
