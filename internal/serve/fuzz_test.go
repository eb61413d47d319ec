package serve

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzJobSpec drives arbitrary request bodies through the decode and
// validation a POST /jobs gets before anything is queued: it must never
// panic, every refusal must be an ErrBadSpec (HTTP 400), and an admitted
// spec must lie inside the default Limits — with the cell count taken in
// float64, where the product of three client-chosen ints cannot wrap.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"wallforce","nx":4,"ny":16,"nz":4,"steps":40}`,
		`{"kind":"wallforce","nx":8,"ny":8,"nz":8,"steps":5,"workers":4,"fused":true,"precision":"f32","wall_limit_ms":1000}`,
		`{"kind":"steady","nx":4,"ny":8,"nz":4,"steps":100,"steady_tol":1e-6,"check_every":10}`,
		`{"kind":"distributed","nx":8,"ny":8,"nz":4,"steps":20,"ranks":4,"checkpoint_interval":5}`,
		`{"kind":"wallforce","nx":8,"ny":20,"nz":8,"steps":20,"refine":{"levels":2,"wall_layers":4}}`,
		`{"steps":60,"resume":"j-0000-000001"}`,
		`{"kind":"wallforce","nx":4294967296,"ny":4294967296,"nz":3,"steps":1}`,
		`{"kind":"wallforce","nx":2305843009213693952,"ny":4,"nz":4,"steps":1}`,
		`{"kind":"distributed","nx":-4,"ny":8,"nz":4,"steps":-1,"ranks":-2,"workers":-1}`,
		`{"kind":"distributed","nx":2,"ny":8,"nz":4,"steps":9223372036854775807,"ranks":1000000}`,
		`{"kind":"wallforce","nx":1e3,"ny":8,"nz":4,"steps":1}`,
		`{"kind":"wallforce","nx":4,"ny":8,"nz":4,"steps":1,"refine":{"levels":9,"wall_layers":-1}}`,
		`{"kind":"wallforce","nx":4,"ny":8,"nz":4,"steps":1,"bogus":1}`,
		`{"kind":`,
	} {
		f.Add([]byte(seed))
	}
	lim := Limits{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(bytes.NewReader(body))
		if err == nil {
			err = sp.Validate(Limits{})
		}
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("refusal of %q is not an ErrBadSpec: %v", body, err)
			}
			return
		}
		if sp.Steps < 1 || sp.Steps > lim.MaxSteps || sp.Workers < 0 || sp.Workers > lim.MaxWorkers {
			t.Fatalf("admitted steps/workers outside the limits: %+v", sp)
		}
		if sp.Resume != "" {
			return // geometry comes from the checkpoint
		}
		if sp.NX < 1 || sp.NY < 1 || sp.NZ < 1 ||
			float64(sp.NX)*float64(sp.NY)*float64(sp.NZ) > float64(lim.MaxCells) {
			t.Fatalf("admitted lattice outside the cell limit: %+v", sp)
		}
		if sp.Kind == KindDistributed {
			ranks := sp.Ranks
			if ranks == 0 {
				ranks = 2 // the server's default
			}
			if ranks < 1 || ranks > lim.MaxRanks || 2*ranks > sp.NX {
				t.Fatalf("admitted ranks outside the limits: %+v", sp)
			}
		}
	})
}
