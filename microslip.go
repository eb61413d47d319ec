// Package microslip reproduces "Parallel Simulation of Fluid Slip in a
// Microchannel" (Zhou, Zhu, Petzold, Yang; IPPS 2004): a multicomponent
// lattice Boltzmann simulation of apparent fluid slip in a hydrophobic
// microchannel, parallelized by slice domain decomposition and load
// balanced with the paper's filtered dynamic remapping of lattice
// points.
//
// This package is the curated public surface; the implementation lives
// in the internal packages:
//
//   - internal/lbm       — D3Q19 Shan-Chen multicomponent LBM kernels
//   - internal/parlbm    — the distributed solver with live plane migration
//   - internal/comm      — the MPI-like message-passing substrate
//   - internal/balance   — filtered dynamic remapping (the contribution)
//     and the schemes it is compared against
//   - internal/vcluster  — the calibrated virtual 20-node cluster
//   - internal/experiments — one runner per table/figure of Section 4
//
// Quick start: simulate fluid slip at reduced scale and print the
// near-wall profiles:
//
//	res, err := microslip.RunSlipPhysics(microslip.DefaultPhysics())
//	if err != nil { ... }
//	fmt.Print(res.Table())
package microslip

import (
	"microslip/internal/balance"
	"microslip/internal/experiments"
	"microslip/internal/lbm"
	"microslip/internal/parlbm"
	"microslip/internal/vcluster"
)

// Physics simulation (Section 2 of the paper).
type (
	// FluidParams configures the multicomponent LBM simulation.
	FluidParams = lbm.Params
	// Component is one fluid of the Shan-Chen mixture.
	Component = lbm.Component
	// Sim is the double-precision sequential solver.
	Sim = lbm.Sim
	// Solver is the precision-agnostic sequential solver interface;
	// NewSolver dispatches on FluidParams.Precision (F64 or F32).
	Solver = lbm.Solver
	// Precision selects the solver's scalar type (F64 or F32).
	Precision = lbm.Precision
	// PhysicsSetup parameterizes the Figure 6/7 experiment.
	PhysicsSetup = experiments.PhysicsSetup
	// PhysicsResult carries the density and velocity profiles.
	PhysicsResult = experiments.PhysicsResult
)

// WaterAirChannel returns the paper's two-component hydrophobic
// microchannel setup at the given resolution.
func WaterAirChannel(nx, ny, nz int) *FluidParams { return lbm.WaterAir(nx, ny, nz) }

// NewSim creates a double-precision sequential simulation.
func NewSim(p *FluidParams) (*Sim, error) { return lbm.NewSim(p) }

// Solver precisions.
const (
	F64 = lbm.F64
	F32 = lbm.F32
)

// NewSolver creates the sequential solver matching p.Precision.
func NewSolver(p *FluidParams) (Solver, error) { return lbm.NewSolver(p) }

// DefaultPhysics returns the reduced-scale slip experiment setup.
func DefaultPhysics() PhysicsSetup { return experiments.DefaultPhysics() }

// RunSlipPhysics reproduces Figures 6 and 7.
func RunSlipPhysics(s PhysicsSetup) (*PhysicsResult, error) {
	return experiments.RunSlipPhysics(s)
}

// Parallel solver (Section 2.2) and remapping schemes (Section 3).
type (
	// ParallelOptions configures a distributed run.
	ParallelOptions = parlbm.Options
	// ParallelResult is one rank's outcome.
	ParallelResult = parlbm.Result
	// Policy is a dynamic remapping scheme.
	Policy = balance.Policy
	// FilteredConfig holds the filtered scheme's tunables.
	FilteredConfig = balance.Config
)

// RunParallel executes the domain-decomposed solver over an in-process
// communicator group and returns the gathered fields from rank 0.
var RunParallel = parlbm.RunParallel

// RunParallelTCP is RunParallel over TCP loopback.
var RunParallelTCP = parlbm.RunParallelTCP

// NewFilteredPolicy returns the paper's filtered dynamic remapping for
// lattices whose 2-D planes hold planePoints points.
func NewFilteredPolicy(planePoints int) Policy { return balance.NewFiltered(planePoints) }

// NewConservativePolicy returns the conservative baseline.
func NewConservativePolicy(planePoints int) Policy { return balance.NewConservative(planePoints) }

// NewGlobalPolicy returns the global-exchange baseline.
func NewGlobalPolicy(planePoints int) Policy { return balance.NewGlobal(planePoints) }

// NoRemapPolicy returns the static-decomposition baseline.
func NoRemapPolicy() Policy { return balance.NoRemap() }

// PolicyByName resolves none|filtered|conservative|global.
var PolicyByName = balance.ByName

// Virtual cluster and canned experiments (Section 4).
type (
	// ClusterSetup fixes the virtual-cluster parameters.
	ClusterSetup = experiments.ClusterSetup
	// ClusterConfig is a raw virtual-cluster run configuration.
	ClusterConfig = vcluster.Config
	// ClusterResult is a virtual-cluster run outcome.
	ClusterResult = vcluster.Result
	// SpeedTrace is a node's effective-speed function.
	SpeedTrace = vcluster.SpeedTrace
)

// PaperSetup returns the paper's 20-node experimental configuration.
func PaperSetup() ClusterSetup { return experiments.PaperSetup() }

// RunCluster executes one virtual-cluster simulation.
var RunCluster = vcluster.Run

// DefaultClusterConfig returns the calibrated virtual-cluster
// configuration for the paper's 400-plane lattice.
var DefaultClusterConfig = vcluster.DefaultConfig

// Workload constructors for the paper's three disturbance patterns.
var (
	Dedicated       = vcluster.Dedicated
	FixedSlowNodes  = vcluster.FixedSlowNodes
	DutyCycleNode   = vcluster.DutyCycleNode
	TransientSpikes = vcluster.TransientSpikes
	SpreadSlowNodes = vcluster.SpreadSlowNodes
)

// Experiment runners, one per table/figure of the evaluation.
var (
	RunFig3         = experiments.RunFig3
	RunFig8         = experiments.RunFig8
	RunFig9         = experiments.RunFig9
	RunFig10        = experiments.RunFig10
	RunTable1       = experiments.RunTable1
	RunSpeedupCurve = experiments.RunSpeedupCurve
)
