package balance

import "testing"

// FuzzPolicyRound drives every policy's remap-plan pipeline (decide →
// conflict resolution) with arbitrary load windows and enforces the
// plan contract the runners rely on: each transfer is a valid neighbor
// move, the whole plan applies in one round without driving any rank
// negative, and the lattice-plane total is conserved. The domain
// contract planes[i] >= 1 (every rank keeps at least one plane so the
// exchange chain stays intact) is preserved by construction; predicted
// times may be zero (unmeasured) or arbitrary. Seed corpus lives under
// testdata/fuzz/FuzzPolicyRound.
func FuzzPolicyRound(f *testing.F) {
	f.Add([]byte{4, 10, 8, 10, 8, 10, 8, 10, 8})
	f.Add([]byte{3, 1, 1, 50, 200, 1, 1})
	f.Add([]byte{5, 20, 0, 20, 16, 20, 16, 20, 16, 20, 16}) // one unmeasured node
	f.Add([]byte{2, 63, 255, 1, 1})
	f.Add([]byte{8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		p := int(data[0])%16 + 2 // 2..17 nodes
		rest := data[1:]
		planes := make([]int, p)
		predicted := make([]float64, p)
		total := 0
		for i := 0; i < p; i++ {
			var pb, tb byte = 10, 8
			if 2*i < len(rest) {
				pb = rest[2*i]
			}
			if 2*i+1 < len(rest) {
				tb = rest[2*i+1]
			}
			planes[i] = int(pb%63) + 1     // 1..63
			predicted[i] = float64(tb) / 8 // 0 (unmeasured) .. 31.875
			total += planes[i]
		}
		starts := make([]int, p+1)
		for i := 0; i < p; i++ {
			starts[i+1] = starts[i] + planes[i]
		}
		part := Partition{NX: total, Starts: starts}

		for _, pol := range All(4000) {
			ts := pol.Round(planes, predicted)
			for _, tr := range ts {
				if err := tr.Validate(p); err != nil {
					t.Fatalf("%s: invalid transfer %+v: %v\nplanes %v predicted %v",
						pol.Name, tr, err, planes, predicted)
				}
			}
			next, err := part.Apply(ts, 0)
			if err != nil {
				t.Fatalf("%s: plan not applicable in one round: %v\ntransfers %+v planes %v predicted %v",
					pol.Name, err, ts, planes, predicted)
			}
			if next.NX != total {
				t.Fatalf("%s: plane total changed %d -> %d", pol.Name, total, next.NX)
			}
			// A round with any unmeasured node must stay quiet for the
			// global policy (it needs all loads), and no policy may move
			// planes when every node already predicts zero time.
			allZero := true
			for _, pr := range predicted {
				if pr > 0 {
					allZero = false
				}
			}
			if allZero && len(ts) != 0 {
				t.Fatalf("%s: transfers %+v from all-unmeasured round", pol.Name, ts)
			}
		}
	})
}
