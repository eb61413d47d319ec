// Package measure computes the physical diagnostics of a channel-flow
// simulation: the wall shear rate and the Navier slip length — the quantity the microfluidics literature (Tretheway &
// Meinhart; Vinogradova) uses to report apparent slip. The slip length
// b is defined by the Navier condition u_wall = b * du/dn|_wall:
// extrapolate the near-wall velocity profile to the wall plane and
// divide by the wall-normal velocity gradient.
package measure

import "fmt"

// Profile is a wall-normal velocity profile: U[i] is the streamwise
// velocity at distance Dist[i] from the wall plane (lattice units,
// ascending, first entries nearest the wall).
type Profile struct {
	Dist []float64
	U    []float64
}

// NewProfile validates and wraps a profile.
func NewProfile(dist, u []float64) (*Profile, error) {
	if len(dist) != len(u) {
		return nil, fmt.Errorf("measure: %d distances for %d velocities", len(dist), len(u))
	}
	if len(dist) < 3 {
		return nil, fmt.Errorf("measure: need at least 3 samples, got %d", len(dist))
	}
	for i := 1; i < len(dist); i++ {
		if dist[i] <= dist[i-1] {
			return nil, fmt.Errorf("measure: distances not ascending at %d", i)
		}
	}
	if dist[0] <= 0 {
		return nil, fmt.Errorf("measure: first sample at non-positive distance %v", dist[0])
	}
	return &Profile{Dist: dist, U: u}, nil
}

// WallFit is the linear extrapolation of the near-wall profile:
// u(d) ~= UWall + Shear*d over the first n samples.
type WallFit struct {
	// UWall is the extrapolated velocity at the wall plane (d = 0).
	UWall float64
	// Shear is the wall-normal velocity gradient du/dn at the wall.
	Shear float64
	// N is the number of near-wall samples used.
	N int
}

// FitWall least-squares fits a line through the n samples nearest the
// wall. n must be at least 2; n = 2-3 keeps the fit inside the
// depletion layer where the profile is genuinely linear.
func (p *Profile) FitWall(n int) (WallFit, error) {
	if n < 2 || n > len(p.Dist) {
		return WallFit{}, fmt.Errorf("measure: fit over %d of %d samples", n, len(p.Dist))
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		sx += p.Dist[i]
		sy += p.U[i]
		sxx += p.Dist[i] * p.Dist[i]
		sxy += p.Dist[i] * p.U[i]
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return WallFit{}, fmt.Errorf("measure: degenerate abscissae")
	}
	shear := (fn*sxy - sx*sy) / den
	return WallFit{
		UWall: (sy - shear*sx) / fn,
		Shear: shear,
		N:     n,
	}, nil
}

// SlipLength returns the Navier slip length b = u_wall / (du/dn) from
// a near-wall fit over n samples, in lattice units. A no-slip profile
// gives b ~ 0; hydrophobic depletion gives b > 0.
func (p *Profile) SlipLength(n int) (float64, error) {
	fit, err := p.FitWall(n)
	if err != nil {
		return 0, err
	}
	if fit.Shear == 0 {
		return 0, fmt.Errorf("measure: zero wall shear; profile is flat")
	}
	return fit.UWall / fit.Shear, nil
}
