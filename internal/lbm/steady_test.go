package lbm

import (
	"math"
	"testing"
)

func TestRunToSteadyConverges(t *testing.T) {
	p := SingleFluid(4, 15, 9, 1.0, 1e-6)
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunToSteady(s, nil, 20000, 200, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Steps >= 20000 {
		t.Errorf("used the full budget (%d steps) yet reported convergence", res.Steps)
	}
	if res.Residual >= 1e-4 {
		t.Errorf("reported residual %v above tolerance", res.Residual)
	}
	// The converged profile is close to the analytic centerline value.
	prof := s.VelocityProfileY(0, p.NZ/2)
	if prof[p.NY/2] <= 0 {
		t.Error("no flow at convergence")
	}
}

func TestRunToSteadyBudgetExhausted(t *testing.T) {
	p := SingleFluid(4, 15, 9, 1.0, 1e-6)
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunToSteady(s, nil, 100, 50, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Errorf("claimed convergence at an impossible tolerance: %+v", res)
	}
	if res.Steps != 100 {
		t.Errorf("ran %d steps, want exactly the 100-step budget", res.Steps)
	}
}

func TestRunToSteadyAtRestIsImmediate(t *testing.T) {
	p := SingleFluid(4, 10, 8, 1.0, 0) // no driving: rest state persists
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunToSteady(s, nil, 1000, 10, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steps != 10 {
		t.Errorf("rest state not detected steady at first check: %+v", res)
	}
}

func TestRelativeChange(t *testing.T) {
	if got := relativeChange([]float64{0, 0}, []float64{0, 0}); got != 0 {
		t.Errorf("zero/zero = %v", got)
	}
	if got := relativeChange([]float64{0}, []float64{1}); !math.IsInf(got, 1) {
		t.Errorf("zero norm with change = %v, want +Inf", got)
	}
	if got := relativeChange([]float64{3, 4}, []float64{3, 4}); got != 0 {
		t.Errorf("identical = %v", got)
	}
	got := relativeChange([]float64{2, 0}, []float64{1, 0})
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("relativeChange = %v, want 0.5", got)
	}
}
