package parlbm

import (
	"math"
	"testing"

	"microslip/internal/lbm"
	"microslip/internal/num"
)

// Wire compression must hit the closed-form byte counts: a frame's raw
// length is odd (kind header + nc*(19+1) planes), so each message packs
// to 8*ceil(n/2) bytes. Expected volumes are derived from the lattice
// constants, so the counters — which count what actually crosses the
// wire — are themselves under test.
func TestWireF32HalvesBulkBytes(t *testing.T) {
	const nx, ny, nz, ranks, phases = 12, 10, 6, 3, 5
	run := func(opts Options) []*Result {
		opts.Phases = phases
		_, results, err := RunParallel(waveParams(nx, ny, nz), ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	const nc, cells = 2, ny * nz
	raw := 1 + nc*cells*(19+1)
	f32 := run(Options{WireF32: true})
	want := int64(ranks * phases * 2 * 8 * num.PackedWords(raw))
	if got, _ := sumHalo(f32); got != want {
		t.Errorf("f32 frame bytes %d, want %d", got, want)
	}
	// Against the uncompressed run the cut is exactly one word short of
	// half per frame (the odd header word rounds up).
	f64 := run(Options{})
	got32, msgs := sumHalo(f32)
	got64, _ := sumHalo(f64)
	if got64 != 2*got32-8*msgs {
		t.Errorf("f32 frames %d bytes vs f64 %d over %d frames: not half", got32, got64, msgs)
	}
	// Sent and received volumes still balance over the closed ring.
	var recv int64
	for _, r := range f32 {
		recv += r.Comm.Bytes.Halo().RecvBytes
	}
	if recv != got32 {
		t.Errorf("f32: %d bytes sent but %d received", got32, recv)
	}
}

// Migrating planes are bulk payloads too: a compressed transfer must
// ship exactly half the bytes (plane payload lengths are even) and
// deliver the float32 rounding of every value — not garbage, not raw
// truncation.
func TestWireF32MigrationHalvesBytesAndRounds(t *testing.T) {
	e0, e1 := fabricPair(t)
	w0 := benchWorker(t, e0, Options{WireF32: true})
	w1 := benchWorker(t, e1, Options{WireF32: true})
	for c := range w0.f {
		for gx := w0.f[c].Start; gx < w0.f[c].End(); gx++ {
			plane := w0.f[c].Plane(gx)
			for i := range plane {
				plane[i] = 1.0 + float64(c*1000000+gx*10000+i)*1e-9
			}
		}
	}
	want := make(map[int][][]float64)
	for c := range w0.f {
		for gx := 2; gx < 4; gx++ {
			plane := append([]float64(nil), w0.f[c].Plane(gx)...)
			want[gx] = append(want[gx], plane)
		}
	}

	const count = 2
	if err := w0.moveBoundary(1, count); err != nil {
		t.Fatal(err)
	}
	if err := w1.moveBoundary(0, count); err != nil {
		t.Fatal(err)
	}
	nc := len(w0.f)
	sz := w0.f[0].PlaneSize()
	wantBytes := int64(8 * num.PackedWords(count*nc*sz))
	if got := w0.res.Breakdown.Bytes.Migration.SentBytes; got != wantBytes {
		t.Errorf("compressed migration sent %d bytes, want %d (half of %d)", got, wantBytes, 8*count*nc*sz)
	}
	if got := w1.res.Breakdown.Bytes.Migration.RecvBytes; got != wantBytes {
		t.Errorf("compressed migration received %d bytes, want %d", got, wantBytes)
	}
	for c := range w1.f {
		for gx := 2; gx < 4; gx++ {
			plane := w1.f[c].Plane(gx)
			for i, v := range plane {
				exp := float64(float32(want[gx][c][i]))
				if math.Float64bits(v) != math.Float64bits(exp) {
					t.Fatalf("comp %d plane %d idx %d: got %v, want float32 rounding %v of %v",
						c, gx, i, v, exp, want[gx][c][i])
				}
			}
		}
	}
}

// Compressed runs must stay deterministic (two identical runs produce
// byte-equal fields, 2-plane slabs included) and within a tight relative
// error of the uncompressed solver.
func TestWireF32DeterministicAndAccurate(t *testing.T) {
	const ny, nz, steps = 10, 6, 8
	fields := func(nx, ranks int, opts Options) [][]float64 {
		opts.Phases = steps
		final, _, err := RunParallel(waveParams(nx, ny, nz), ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]float64
		for _, comp := range final {
			for x := 0; x < nx; x++ {
				out = append(out, append([]float64(nil), comp.Plane(x)...))
			}
		}
		return out
	}
	bitEqual := func(t *testing.T, label string, a, b [][]float64) {
		t.Helper()
		for p := range a {
			for i := range a[p] {
				if math.Float64bits(a[p][i]) != math.Float64bits(b[p][i]) {
					t.Fatalf("%s: diverged at plane %d index %d: %v != %v", label, p, i, a[p][i], b[p][i])
				}
			}
		}
	}

	a := fields(12, 3, Options{WireF32: true})
	bitEqual(t, "f32 rerun", a, fields(12, 3, Options{WireF32: true}))
	// 2-plane slabs: every plane of the lattice is some rank's edge.
	bitEqual(t, "2-plane f32 rerun", fields(4, 2, Options{WireF32: true}), fields(4, 2, Options{WireF32: true}))

	// Accuracy against the uncompressed solver: only boundary-plane
	// traffic is rounded, so after a short run the fields agree to a few
	// float32 ulps of the O(1) densities.
	ref := fields(12, 3, Options{})
	var maxRel float64
	for p := range ref {
		for i := range ref[p] {
			denom := math.Abs(ref[p][i])
			if denom < 1e-12 {
				continue
			}
			if rel := math.Abs(a[p][i]-ref[p][i]) / denom; rel > maxRel {
				maxRel = rel
			}
		}
	}
	if maxRel > 1e-4 {
		t.Errorf("f32 wire vs f64 max relative error %.3g > 1e-4", maxRel)
	}
	if maxRel == 0 {
		t.Error("f32 wire produced bit-identical fields; compression apparently not applied")
	}
}

// A reduced-precision parameter set implies wire compression without
// setting Options.WireF32: the distributed solver computes in float64
// but ships float32, and the counters show the packed sizes.
func TestWireF32ImpliedByPrecision(t *testing.T) {
	const nx, ny, nz, ranks, phases = 12, 10, 6, 3, 4
	p := waveParams(nx, ny, nz)
	p.Precision = lbm.F32
	_, results, err := RunParallel(p, ranks, Options{Phases: phases})
	if err != nil {
		t.Fatal(err)
	}
	const nc, cells = 2, ny * nz
	want := int64(ranks * phases * 2 * 8 * num.PackedWords(1+nc*cells*(19+1)))
	if got, _ := sumHalo(results); got != want {
		t.Errorf("F32 params frame bytes %d, want packed %d", got, want)
	}
}
