// Package profile records the per-node execution-time breakdown the
// paper reports in Figure 9: time spent computing, communicating
// (including synchronization waits), and remapping (decision exchange
// plus lattice-plane migration).
package profile

import (
	"fmt"
	"strings"
)

// Breakdown is one node's accumulated time split, in seconds.
type Breakdown struct {
	Computation   float64
	Communication float64
	Remapping     float64
	// Checkpoint is time spent persisting coordinated checkpoints
	// (serialization, fsync-equivalent I/O, and the commit barrier).
	Checkpoint float64
	// Bytes is the wire payload volume behind the Communication and
	// Remapping splits, counted per message class at the solver's
	// send/receive call sites (8 bytes per float64, headers excluded),
	// so it is identical across transports.
	Bytes CommBytes
}

// TagBytes counts the wire traffic of one message class: payload bytes
// and message count, split by direction.
type TagBytes struct {
	SentBytes, RecvBytes int64
	SentMsgs, RecvMsgs   int64
}

// CountSend records one sent message of n payload bytes.
func (t *TagBytes) CountSend(n int) { t.SentBytes += int64(n); t.SentMsgs++ }

// CountRecv records one received message of n payload bytes.
func (t *TagBytes) CountRecv(n int) { t.RecvBytes += int64(n); t.RecvMsgs++ }

// Add accumulates another class's counters.
func (t *TagBytes) Add(o TagBytes) {
	t.SentBytes += o.SentBytes
	t.RecvBytes += o.RecvBytes
	t.SentMsgs += o.SentMsgs
	t.RecvMsgs += o.RecvMsgs
}

// CommBytes is one node's wire traffic split by message class.
type CommBytes struct {
	// Frame counts the per-neighbour phase frames, the distributed
	// solver's whole halo exchange.
	Frame TagBytes
	// Migration counts lattice-plane transfers of dynamic remapping.
	Migration TagBytes
	// Control counts the small coordination payloads: load-index and
	// desire exchanges of the remapping protocol.
	Control TagBytes
	// Gather counts the end-of-run field gather to rank 0.
	Gather TagBytes
}

// Add accumulates another node's traffic.
func (b *CommBytes) Add(o CommBytes) {
	b.Frame.Add(o.Frame)
	b.Migration.Add(o.Migration)
	b.Control.Add(o.Control)
	b.Gather.Add(o.Gather)
}

// Halo returns the per-phase halo traffic: the frames.
func (b CommBytes) Halo() TagBytes { return b.Frame }

// Total returns the aggregate over every message class.
func (b CommBytes) Total() TagBytes {
	t := b.Halo()
	t.Add(b.Migration)
	t.Add(b.Control)
	t.Add(b.Gather)
	return t
}

// Total returns the node's total accounted time.
func (b Breakdown) Total() float64 {
	return b.Computation + b.Communication + b.Remapping + b.Checkpoint
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Computation += o.Computation
	b.Communication += o.Communication
	b.Remapping += o.Remapping
	b.Checkpoint += o.Checkpoint
	b.Bytes.Add(o.Bytes)
}

// CommStats is one node's communication record: its wire payload
// volume by message class.
type CommStats struct {
	// Retries is always zero: no transport retries a message. The field
	// survives only because the external bench module reads it as a
	// regression guard; dropping it belongs with a change to that
	// module.
	Retries int64
	// Bytes is the node's wire payload volume by message class, counted
	// at the solver layer.
	Bytes CommBytes
}

// Profile collects breakdowns for all nodes of a run.
type Profile struct {
	Nodes []Breakdown
}

// New creates a profile for p nodes.
func New(p int) *Profile {
	return &Profile{Nodes: make([]Breakdown, p)}
}

// AddComputation charges t seconds of compute to node i.
func (p *Profile) AddComputation(i int, t float64) { p.Nodes[i].Computation += t }

// AddCommunication charges t seconds of communication/wait to node i.
func (p *Profile) AddCommunication(i int, t float64) { p.Nodes[i].Communication += t }

// AddRemapping charges t seconds of remapping work to node i.
func (p *Profile) AddRemapping(i int, t float64) { p.Nodes[i].Remapping += t }

// AddCheckpoint charges t seconds of checkpoint/recovery work to node i.
func (p *Profile) AddCheckpoint(i int, t float64) { p.Nodes[i].Checkpoint += t }

// Sum returns the cluster-wide aggregate breakdown.
func (p *Profile) Sum() Breakdown {
	var s Breakdown
	for _, b := range p.Nodes {
		s.Add(b)
	}
	return s
}

// String renders the per-node stacked columns as an ASCII table, the
// textual analogue of Figure 9.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%4s %12s %14s %10s %10s %10s\n", "node", "comp (s)", "comm (s)", "remap (s)", "ckpt (s)", "total (s)")
	for i, b := range p.Nodes {
		fmt.Fprintf(&sb, "%4d %12.2f %14.2f %10.2f %10.2f %10.2f\n",
			i, b.Computation, b.Communication, b.Remapping, b.Checkpoint, b.Total())
	}
	return sb.String()
}
