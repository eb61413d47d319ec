package vcluster

import "fmt"

// Costs holds the calibrated per-operation virtual-time costs. The
// defaults reproduce the paper's measured anchors for the 400x200x20
// lattice on the 2.6 GHz Xeon / Gigabit Ethernet cluster:
//
//   - sequential run: 43.56 h for 20,000 phases => 7.8408 s/phase
//     => CompPerPoint = 7.8408 / 1.6e6 = 4.9005 us;
//   - 20-node dedicated, 600 phases: 251 s => 0.4183 s/phase; compute
//     share 20 planes * 4000 pts * CompPerPoint = 0.3920 s, leaving
//     ~26 ms/phase of halo exchange (two exchanges per phase over
//     ~1.2 MB planes on Gigabit Ethernet, ~13 ms each);
//   - speedup 7.8408/0.4183 = 18.74 vs the paper's 18.97.
type Costs struct {
	// CompPerPoint is the full-speed compute cost of one lattice point
	// per phase, in seconds.
	CompPerPoint float64
	// ExchangeWire is the wire cost of one halo exchange on the phase
	// critical path; each phase performs two (distribution functions
	// and number densities, lines 8 and 14 of the paper's pseudo-code).
	ExchangeWire float64
	// MsgHandlingWork is the CPU work (seconds at full speed) a node
	// spends packing/unpacking one halo exchange; it runs at the node's
	// current contended speed, which is how a loaded node slows its
	// neighbors beyond pure compute.
	MsgHandlingWork float64
	// DistHaloDirs is the number of distribution populations the halo
	// exchange ships per cell: 19 for the historical full-plane wire
	// format, 5 for the slim format (only the populations that cross an
	// x-face). Zero means 19, so the calibrated paper anchors above are
	// reproduced by default. The density halo always ships one value
	// per cell; see PhaseExchangeWire.
	DistHaloDirs int
	// CoalescedHalo models the coalesced frame protocol: one message
	// per neighbor per phase instead of two, halving the per-phase
	// message-handling work (the wire volume stays that of the two
	// payloads it merges).
	CoalescedHalo bool
	// RemapInfoWire is the wire cost of the neighbor load-index
	// exchange at a local remapping round.
	RemapInfoWire float64
	// GlobalSyncWire is the wire cost of the collective gather/scatter
	// a global remapping round performs.
	GlobalSyncWire float64
	// CollectiveHandlingWork is the CPU work each node contributes to a
	// collective; a loaded node stalls the whole collective by this
	// work divided by its speed.
	CollectiveHandlingWork float64
	// PlaneMoveWire is the wire cost of migrating one lattice plane
	// (1.28 MB of distributions + densities) across one boundary.
	PlaneMoveWire float64
	// CheckpointPerPlane is the CPU work (seconds at full speed) a node
	// spends serializing and persisting one of its planes at a
	// coordinated checkpoint; it runs at the node's contended speed.
	CheckpointPerPlane float64
	// CheckpointCommitWire is the wire cost of the checkpoint commit
	// barrier (the two-phase commit marker write).
	CheckpointCommitWire float64
}

// DefaultCosts returns the calibration above.
func DefaultCosts() Costs {
	return Costs{
		CompPerPoint:           4.9005e-6,
		ExchangeWire:           0.013,
		MsgHandlingWork:        0.002,
		RemapInfoWire:          0.0005,
		GlobalSyncWire:         0.005,
		CollectiveHandlingWork: 0.002,
		PlaneMoveWire:          0.0102,
		CheckpointPerPlane:     0.004,
		CheckpointCommitWire:   0.001,
	}
}

// distHaloDirs resolves the zero default.
func (c Costs) distHaloDirs() float64 {
	if c.DistHaloDirs == 0 {
		return 19
	}
	return float64(c.DistHaloDirs)
}

// PhaseExchangeWire returns the wire cost of one phase's halo traffic
// on the critical path. ExchangeWire is calibrated as the cost of one
// full-plane exchange; the density exchange keeps that cost (it is
// dominated by the same per-message latency the calibration folded in)
// while the distribution exchange scales with the fraction of the 19
// populations actually shipped. With the historical default (19
// directions) this reduces to the 2*ExchangeWire the paper anchors
// were calibrated against; the slim format gives 1 + 5/19 of one
// exchange instead.
func (c Costs) PhaseExchangeWire() float64 {
	return c.ExchangeWire * (1 + c.distHaloDirs()/19)
}

// PhaseHandlingWork returns the per-phase CPU work of packing and
// unpacking the halo traffic: two exchanges' worth, or one when the
// coalesced protocol merges them into a single frame per neighbor.
func (c Costs) PhaseHandlingWork() float64 {
	if c.CoalescedHalo {
		return c.MsgHandlingWork
	}
	return 2 * c.MsgHandlingWork
}

// Validate checks the costs are usable.
func (c Costs) Validate() error {
	if c.CompPerPoint <= 0 {
		return fmt.Errorf("vcluster: CompPerPoint %v must be positive", c.CompPerPoint)
	}
	for name, v := range map[string]float64{
		"ExchangeWire": c.ExchangeWire, "MsgHandlingWork": c.MsgHandlingWork,
		"RemapInfoWire": c.RemapInfoWire, "GlobalSyncWire": c.GlobalSyncWire,
		"CollectiveHandlingWork": c.CollectiveHandlingWork, "PlaneMoveWire": c.PlaneMoveWire,
		"CheckpointPerPlane": c.CheckpointPerPlane, "CheckpointCommitWire": c.CheckpointCommitWire,
	} {
		if v < 0 {
			return fmt.Errorf("vcluster: %s %v must be non-negative", name, v)
		}
	}
	if c.DistHaloDirs < 0 || c.DistHaloDirs > 19 {
		return fmt.Errorf("vcluster: DistHaloDirs %d outside [0, 19]", c.DistHaloDirs)
	}
	return nil
}

// SequentialTime returns the single-machine time for the given problem:
// pure compute, no communication.
func (c Costs) SequentialTime(totalPoints, phases int) float64 {
	return float64(totalPoints) * c.CompPerPoint * float64(phases)
}
