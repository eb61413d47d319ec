package checkpoint_test

import (
	"errors"
	"testing"

	"microslip/internal/checkpoint"
	"microslip/internal/lbm"
	"microslip/internal/parlbm"
)

// A rank checkpoint set records the precision it was written at, and
// the fixed-precision resume that loads it honours the record: a
// snapshot of the other precision fails with ErrPrecision (neither
// ErrCorrupt nor ErrVersion) instead of silently re-rounding (f64 ->
// f32) or fabricating precision (f32 -> f64), while the matching
// precision resumes.
func TestLoadForPrecisionMismatch(t *testing.T) {
	const ranks, phases = 2, 4
	params := func(prec lbm.Precision) *lbm.Params {
		p := lbm.WaterAir(8, 6, 4)
		p.Precision = prec
		return p
	}
	snapshot := func(prec lbm.Precision) *checkpoint.RunSnapshot {
		dir := t.TempDir()
		if _, _, err := parlbm.RunParallel(params(prec), ranks, parlbm.Options{
			Phases:     phases,
			Checkpoint: &parlbm.CheckpointSpec{Dir: dir, Interval: 2},
		}); err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.LatestRun(dir)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Params == nil || snap.Params.Precision != prec {
			t.Fatalf("%v run: snapshot records params %+v", prec, snap.Params)
		}
		return snap
	}
	resume := func(prec lbm.Precision, snap *checkpoint.RunSnapshot) error {
		_, _, err := parlbm.RunParallel(params(prec), ranks, parlbm.Options{
			Phases:     phases,
			Checkpoint: &parlbm.CheckpointSpec{Dir: t.TempDir(), Interval: 100, Snapshot: snap},
		})
		return err
	}
	snaps := map[lbm.Precision]*checkpoint.RunSnapshot{lbm.F64: snapshot(lbm.F64), lbm.F32: snapshot(lbm.F32)}

	for _, prec := range []lbm.Precision{lbm.F64, lbm.F32} {
		if err := resume(prec, snaps[prec]); err != nil {
			t.Errorf("matching %v resume failed: %v", prec, err)
		}
	}
	for _, tc := range []struct {
		name      string
		snap, run lbm.Precision
	}{
		{"f64 snapshot into f32 run", lbm.F64, lbm.F32},
		{"f32 snapshot into f64 run", lbm.F32, lbm.F64},
	} {
		err := resume(tc.run, snaps[tc.snap])
		if !errors.Is(err, checkpoint.ErrPrecision) {
			t.Errorf("%s: err = %v, want errors.Is(ErrPrecision)", tc.name, err)
		}
		if errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrVersion) {
			t.Errorf("%s: %v matches another typed error", tc.name, err)
		}
	}
}
