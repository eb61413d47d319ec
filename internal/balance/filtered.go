package balance

import "fmt"

// Config holds the tunables of the remapping schemes. The defaults
// (DefaultConfig) follow Section 3.4 and the experimental setup of
// Section 4 for the 400 x 200 x 20 lattice.
type Config struct {
	// HistoryK is the number of recent phase times fed to the
	// harmonic-mean predictor (paper: 10).
	HistoryK int
	// Interval is the number of LBM phases between remapping rounds
	// (REMAPPING_INTERVAL in the paper's pseudo-code).
	Interval int
	// ThresholdPoints is the minimum worthwhile transfer (paper: 4,000
	// lattice points = one 200 x 20 plane).
	ThresholdPoints int
	// PlanePoints is the number of lattice points per 2-D plane, the
	// migration granularity.
	PlanePoints int
	// MinKeepPlanes is the minimum number of planes a node retains so
	// the linear exchange chain stays intact; Validate requires at
	// least 2. A distributed rank (package parlbm) ships the plane
	// behind each edge in its frames, so it cannot run on fewer, and
	// the cluster model (package vcluster) keeps the same rule.
	MinKeepPlanes int
	// OverRedistribute enables the kappa = S_recv/S_send scaling
	// (filtered scheme). Disabled for the conservative baseline.
	OverRedistribute bool
	// Alpha divides the transfer amount (conservative redistribution
	// ships delta/alpha, typically alpha = 2; the filtered scheme uses
	// alpha = 1).
	Alpha float64
	// FastToSlowFilter suppresses transfers toward slower receivers.
	FastToSlowFilter bool
	// FilterSlack is the relative speed tolerance of the fast-to-slow
	// filter: a receiver within (1-FilterSlack) of the sender's speed
	// still qualifies, so measurement noise and exact ties do not block
	// diffusion among equally fast nodes.
	FilterSlack float64
	// KappaCap bounds the over-redistribution factor (guards against a
	// nearly stalled sender producing an absurd scale; the budget cap
	// in conflict resolution applies regardless).
	KappaCap float64
}

// DefaultConfig returns the filtered scheme's configuration for a
// lattice whose 2-D planes hold planePoints points each.
func DefaultConfig(planePoints int) Config {
	return Config{
		HistoryK:         10,
		Interval:         25,
		ThresholdPoints:  planePoints,
		PlanePoints:      planePoints,
		MinKeepPlanes:    2,
		OverRedistribute: true,
		Alpha:            1,
		FastToSlowFilter: true,
		FilterSlack:      0.05,
		KappaCap:         8,
	}
}

// ConservativeConfig returns the conservative baseline: identical lazy
// machinery but delta/alpha shipping instead of over-redistribution
// (Section 4.2.2 compares the two).
func ConservativeConfig(planePoints int) Config {
	c := DefaultConfig(planePoints)
	c.OverRedistribute = false
	c.Alpha = 2
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.HistoryK < 1 {
		return fmt.Errorf("balance: HistoryK %d < 1", c.HistoryK)
	}
	if c.Interval < 1 {
		return fmt.Errorf("balance: Interval %d < 1", c.Interval)
	}
	if c.PlanePoints < 1 {
		return fmt.Errorf("balance: PlanePoints %d < 1", c.PlanePoints)
	}
	if c.ThresholdPoints < 0 {
		return fmt.Errorf("balance: negative ThresholdPoints")
	}
	if c.MinKeepPlanes < 2 {
		return fmt.Errorf("balance: MinKeepPlanes %d < 2", c.MinKeepPlanes)
	}
	if c.Alpha < 1 {
		return fmt.Errorf("balance: Alpha %v < 1", c.Alpha)
	}
	if c.KappaCap < 1 {
		return fmt.Errorf("balance: KappaCap %v < 1", c.KappaCap)
	}
	if c.FilterSlack < 0 || c.FilterSlack >= 1 {
		return fmt.Errorf("balance: FilterSlack %v out of [0,1)", c.FilterSlack)
	}
	return nil
}

// Window is the local information node i holds at a remapping round:
// its own point count and predicted time plus those of its neighbors
// in the linear array (absent at the ends).
type Window struct {
	HasLeft, HasRight               bool
	PointsLeft, Points, PointsRight int
	TimeLeft, Time, TimeRight       float64
}

// speed returns points per unit time, or 0 when unknown.
func speed(points int, t float64) float64 {
	if t <= 0 || points <= 0 {
		return 0
	}
	return float64(points) / t
}

// DecideNode computes the planes node i wants to ship to its left and
// right neighbors. It is a pure function of the local window, so the
// distributed runner (parlbm) and the cluster simulator (vcluster)
// share it exactly.
func (c Config) DecideNode(w Window) (toLeftPlanes, toRightPlanes int) {
	sSelf := speed(w.Points, w.Time)
	if sSelf == 0 {
		return 0, 0
	}
	if w.HasRight {
		toRightPlanes = c.decideDirection(w, sSelf, true)
	}
	if w.HasLeft {
		toLeftPlanes = c.decideDirection(w, sSelf, false)
	}
	// Never plan to ship more than we own minus the kept minimum.
	budget := w.Points/c.PlanePoints - c.MinKeepPlanes
	if budget < 0 {
		budget = 0
	}
	toLeftPlanes, toRightPlanes = trimToBudget(toLeftPlanes, toRightPlanes, budget)
	return toLeftPlanes, toRightPlanes
}

// decideDirection evaluates a transfer from the window's center toward
// the right (toRight true) or left neighbor.
func (c Config) decideDirection(w Window, sSelf float64, toRight bool) int {
	var nRecv int
	var tRecv float64
	if toRight {
		nRecv, tRecv = w.PointsRight, w.TimeRight
	} else {
		nRecv, tRecv = w.PointsLeft, w.TimeLeft
	}
	sRecv := speed(nRecv, tRecv)
	if sRecv == 0 {
		return 0
	}
	// Local balance over the full window the node can see.
	sumN := w.Points + nRecv
	sumS := sSelf + sRecv
	if toRight && w.HasLeft {
		sL := speed(w.PointsLeft, w.TimeLeft)
		if sL > 0 {
			sumN += w.PointsLeft
			sumS += sL
		}
	}
	if !toRight && w.HasRight {
		sR := speed(w.PointsRight, w.TimeRight)
		if sR > 0 {
			sumN += w.PointsRight
			sumS += sR
		}
	}
	target := sRecv * float64(sumN) / sumS
	delta := target - float64(nRecv)
	if delta < float64(c.ThresholdPoints) {
		return 0
	}
	if c.FastToSlowFilter && sRecv < sSelf*(1-c.FilterSlack) {
		return 0
	}
	amount := delta
	if c.OverRedistribute {
		kappa := sRecv / sSelf
		if kappa > c.KappaCap {
			kappa = c.KappaCap
		}
		if kappa > 1 {
			amount *= kappa
		}
	}
	amount /= c.Alpha
	planes := int(amount/float64(c.PlanePoints) + 0.5)
	if planes < 1 && delta >= float64(c.ThresholdPoints) {
		planes = 1
	}
	return planes
}

// trimToBudget reduces the pair (l, r) until l+r <= budget, always
// trimming the strictly larger side; exact ties shrink both sides so
// the result is mirror-symmetric (it may undershoot the budget by one).
func trimToBudget(l, r, budget int) (int, int) {
	for l+r > budget {
		switch {
		case l > r:
			l--
		case r > l:
			r--
		default:
			if l == 0 {
				return 0, 0
			}
			l--
			r--
		}
	}
	return l, r
}

// Desire is one node's planned outgoing transfers, in planes.
type Desire struct {
	ToLeft, ToRight int
}

// DecideAll evaluates DecideNode for every node from global snapshots
// of per-node plane counts and predicted times; used by the cluster
// simulator (the distributed runner evaluates each node locally with
// messages instead, producing identical desires).
func (c Config) DecideAll(planes []int, predicted []float64) []Desire {
	p := len(planes)
	out := make([]Desire, p)
	for i := 0; i < p; i++ {
		w := Window{
			HasLeft:  i > 0,
			HasRight: i < p-1,
			Points:   planes[i] * c.PlanePoints,
			Time:     predicted[i],
		}
		if w.HasLeft {
			w.PointsLeft = planes[i-1] * c.PlanePoints
			w.TimeLeft = predicted[i-1]
		}
		if w.HasRight {
			w.PointsRight = planes[i+1] * c.PlanePoints
			w.TimeRight = predicted[i+1]
		}
		l, r := c.DecideNode(w)
		out[i] = Desire{ToLeft: l, ToRight: r}
	}
	return out
}

// Resolve turns per-node desires into executable neighbor transfers:
// opposite desires across a boundary cancel to their net (the paper's
// conflict resolution), and each node's total outgoing is capped so it
// keeps MinKeepPlanes planes.
func (c Config) Resolve(desires []Desire, ownedPlanes []int) []Transfer {
	p := len(desires)
	if len(ownedPlanes) != p {
		panic(fmt.Sprintf("balance: %d desires for %d nodes", p, len(ownedPlanes)))
	}
	// Net flow across each boundary b (between node b and b+1);
	// positive = rightward.
	net := make([]int, p-1)
	for b := 0; b < p-1; b++ {
		net[b] = desires[b].ToRight - desires[b+1].ToLeft
	}
	// Cap outgoing totals per node.
	for i := 0; i < p; i++ {
		budget := ownedPlanes[i] - c.MinKeepPlanes
		if budget < 0 {
			budget = 0
		}
		outL, outR := 0, 0
		if i > 0 && net[i-1] < 0 {
			outL = -net[i-1]
		}
		if i < p-1 && net[i] > 0 {
			outR = net[i]
		}
		newL, newR := trimToBudget(outL, outR, budget)
		if i > 0 {
			net[i-1] += outL - newL
		}
		if i < p-1 {
			net[i] -= outR - newR
		}
	}
	var ts []Transfer
	for b := 0; b < p-1; b++ {
		switch {
		case net[b] > 0:
			ts = append(ts, Transfer{From: b, To: b + 1, Planes: net[b]})
		case net[b] < 0:
			ts = append(ts, Transfer{From: b + 1, To: b, Planes: -net[b]})
		}
	}
	return ts
}
