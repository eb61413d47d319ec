package lbm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestKernelBitsPinned pins the kernel's arithmetic across rewrites.
// Every bit-identity row elsewhere compares a fast path with the serial
// Step, and both call the same KernelOf methods, so a kernel change
// that alters results moves both sides together. This test hashes the
// whole lattice after 30 production steps against hashes recorded from
// an earlier kernel: a kernel change that keeps the hashes is bit for
// bit the same update. Re-record them only together with a kernel
// change that is meant to round differently, and say so where the
// change is described.
//
// Other architectures are skipped: the Go compiler may fuse a multiply
// and an add into one instruction there, which rounds once instead of
// twice.
func TestKernelBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit pins are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const steps = 30
	obstacle := WaterAir(10, 14, 9)
	obstacle.WallAdhesion = []float64{0.2, -0.1}
	obstacle.Obstacles = []Obstacle{{Y0: 5, Y1: 7, Z0: 3, Z1: 4}}
	single := WaterAir(10, 14, 8)
	single.Precision = F32
	refP, refSpec := refineTestParams()
	cases := []struct {
		name string
		make func() (Stepper, error)
		want string
	}{
		{"water-air/f64", func() (Stepper, error) { return NewSolver(WaterAir(10, 14, 8)) },
			"cdb0ae60002a20e53a0b898e438a62b87a8c95c907b0978ee5136aada5a51773"},
		{"adhesion+obstacle/f64", func() (Stepper, error) { return NewSolver(obstacle) },
			"6f38816f34d231dc9152b825eb7df698556b474658adba626caa82b5a3b48244"},
		{"water-air/f32", func() (Stepper, error) { return NewSolver(single) },
			"c57e11fa8a5e4537d077d817452b63683c9f5debe748c0c7134abb02bc5d6847"},
		{"refined-2-level/f64", func() (Stepper, error) { return NewRefined(refP, refSpec) },
			"f944f278648a345becd239c75fb6d6b04ba0b04cc668f1ebc93eea5d7fe7676f"},
	}
	for _, tc := range cases {
		s, err := tc.make()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s.SetWorkers(1)
		advance(t, s, steps)
		h := sha256.New()
		var buf [8]byte
		for _, b := range latticeBits(s) {
			binary.LittleEndian.PutUint64(buf[:], b)
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: lattice SHA-256 after %d steps = %s, want %s", tc.name, steps, got, tc.want)
		}
	}
}
