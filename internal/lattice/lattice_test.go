package lattice

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func TestOppositeIsInvolution(t *testing.T) {
	for i := 0; i < Q19; i++ {
		if Opposite[Opposite[i]] != i {
			t.Errorf("Opposite[Opposite[%d]] = %d, want %d", i, Opposite[Opposite[i]], i)
		}
		if Ex[Opposite[i]] != -Ex[i] || Ey[Opposite[i]] != -Ey[i] || Ez[Opposite[i]] != -Ez[i] {
			t.Errorf("direction %d: Opposite velocity is not the negation", i)
		}
	}
}

func TestWeightsSumToOne(t *testing.T) {
	var s float64
	for _, w := range W {
		s += w
	}
	if math.Abs(s-1) > eps {
		t.Errorf("sum of D3Q19 weights = %v, want 1", s)
	}
}

// TestMomentIdentities verifies the isotropy conditions required for the
// lattice to recover Navier-Stokes behaviour:
//
//	sum_i w_i e_ia            = 0
//	sum_i w_i e_ia e_ib       = c_s^2 delta_ab
//	sum_i w_i e_ia e_ib e_ic  = 0
func TestMomentIdentities(t *testing.T) {
	var m1 [3]float64
	var m2 [3][3]float64
	var m3 [3][3][3]float64
	for i := 0; i < Q19; i++ {
		e := [3]float64{float64(Ex[i]), float64(Ey[i]), float64(Ez[i])}
		for a := 0; a < 3; a++ {
			m1[a] += W[i] * e[a]
			for b := 0; b < 3; b++ {
				m2[a][b] += W[i] * e[a] * e[b]
				for c := 0; c < 3; c++ {
					m3[a][b][c] += W[i] * e[a] * e[b] * e[c]
				}
			}
		}
	}
	for a := 0; a < 3; a++ {
		if math.Abs(m1[a]) > eps {
			t.Errorf("first moment [%d] = %v, want 0", a, m1[a])
		}
		for b := 0; b < 3; b++ {
			want := 0.0
			if a == b {
				want = CS2
			}
			if math.Abs(m2[a][b]-want) > eps {
				t.Errorf("second moment [%d][%d] = %v, want %v", a, b, m2[a][b], want)
			}
			for c := 0; c < 3; c++ {
				if math.Abs(m3[a][b][c]) > eps {
					t.Errorf("third moment [%d][%d][%d] = %v, want 0", a, b, c, m3[a][b][c])
				}
			}
		}
	}
}

func TestFourthMomentIsotropy(t *testing.T) {
	// sum_i w_i e_ia e_ib e_ic e_id = c_s^4 (d_ab d_cd + d_ac d_bd + d_ad d_bc)
	delta := func(a, b int) float64 {
		if a == b {
			return 1
		}
		return 0
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 3; c++ {
				for d := 0; d < 3; d++ {
					var got float64
					for i := 0; i < Q19; i++ {
						e := [3]float64{float64(Ex[i]), float64(Ey[i]), float64(Ez[i])}
						got += W[i] * e[a] * e[b] * e[c] * e[d]
					}
					want := CS2 * CS2 * (delta(a, b)*delta(c, d) + delta(a, c)*delta(b, d) + delta(a, d)*delta(b, c))
					if math.Abs(got-want) > eps {
						t.Errorf("fourth moment [%d%d%d%d] = %v, want %v", a, b, c, d, got, want)
					}
				}
			}
		}
	}
}

func TestDirectionGroups(t *testing.T) {
	var right, left []int
	for i := 0; i < Q19; i++ {
		switch {
		case Ex[i] > 0:
			right = append(right, i)
		case Ex[i] < 0:
			left = append(left, i)
		}
	}
	if len(right) != CrossQ || len(left) != CrossQ {
		t.Fatalf("expected %d right-going and %d left-going directions, got %d/%d", CrossQ, CrossQ, len(right), len(left))
	}
	// Every population crossing one face has its reverse crossing the
	// other, so the two groups pair up direction for direction.
	for k, i := range right {
		if Opposite[i] != left[k] {
			t.Errorf("left-going %d is not the opposite of right-going %d", left[k], i)
		}
	}
}

// Property: equilibrium distributions reproduce their own density and
// momentum moments for any admissible (rho, u).
func TestEquilibriumMoments(t *testing.T) {
	f := func(rhoRaw, uxRaw, uyRaw, uzRaw float64) bool {
		rho := 0.1 + math.Abs(math.Mod(rhoRaw, 10))
		ux := math.Mod(uxRaw, 0.1)
		uy := math.Mod(uyRaw, 0.1)
		uz := math.Mod(uzRaw, 0.1)
		var feq [Q19]float64
		Equilibrium(rho, ux, uy, uz, &feq)
		var m, px, py, pz float64
		for i := 0; i < Q19; i++ {
			m += feq[i]
			px += feq[i] * float64(Ex[i])
			py += feq[i] * float64(Ey[i])
			pz += feq[i] * float64(Ez[i])
		}
		tol := 1e-9 * (1 + rho)
		return math.Abs(m-rho) < tol &&
			math.Abs(px-rho*ux) < tol &&
			math.Abs(py-rho*uy) < tol &&
			math.Abs(pz-rho*uz) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEquilibriumAtRestIsWeights(t *testing.T) {
	var feq [Q19]float64
	Equilibrium(1, 0, 0, 0, &feq)
	for i := 0; i < Q19; i++ {
		if math.Abs(feq[i]-W[i]) > eps {
			t.Errorf("rest equilibrium[%d] = %v, want %v", i, feq[i], W[i])
		}
	}
}

func TestViscosityRoundTrip(t *testing.T) {
	f := func(nuRaw float64) bool {
		nu := 0.001 + math.Abs(math.Mod(nuRaw, 1))
		tau := nu/CS2 + 0.5
		return math.Abs(Viscosity(tau)-nu) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Viscosity(1.0) != CS2*0.5 {
		t.Errorf("Viscosity(1) = %v, want %v", Viscosity(1.0), CS2*0.5)
	}
}
