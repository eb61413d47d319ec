package num

import (
	"math"
	"math/rand"
	"testing"
)

func TestPackedWords(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 19: 10, 20: 10}
	for n, want := range cases {
		if got := PackedWords(n); got != want {
			t.Errorf("PackedWords(%d) = %d, want %d", n, got, want)
		}
	}
}

// Pack followed by unpack must reproduce exactly the float32 rounding of
// the source, for both even and odd lengths, including non-finite and
// denormal values.
func TestPackUnpackRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 5, 19, 64, 95, 190} {
		src := make([]float64, n)
		for i := range src {
			switch i % 7 {
			case 5:
				src[i] = math.Inf(1 - 2*(i%2))
			case 6:
				src[i] = 1e-310 // denormal in f64, flushes to 0/denorm in f32
			default:
				src[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(i%9-4))
			}
		}
		packed := PackF32Words(nil, src)
		if len(packed) != PackedWords(n) {
			t.Fatalf("n=%d: packed len %d, want %d", n, len(packed), PackedWords(n))
		}
		out := UnpackF32Words(nil, packed, n)
		if len(out) != n {
			t.Fatalf("n=%d: unpacked len %d, want %d", n, len(out), n)
		}
		for i, v := range out {
			want := float64(float32(src[i]))
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("n=%d i=%d: got %v (%x), want %v (%x)", n, i, v,
					math.Float64bits(v), want, math.Float64bits(want))
			}
		}
	}
}

// A second pack into the same buffer must not allocate and must fully
// overwrite prior contents.
func TestPackReusesBuffer(t *testing.T) {
	src := make([]float64, 33)
	for i := range src {
		src[i] = float64(i) * 0.25
	}
	buf := PackF32Words(nil, src)
	buf2 := PackF32Words(buf, src[:31])
	if &buf2[0] != &buf[0] {
		t.Error("PackF32Words did not reuse the buffer")
	}
	out := UnpackF32Words(nil, buf2, 31)
	for i, v := range out {
		if v != float64(float32(src[i])) {
			t.Fatalf("i=%d: got %v", i, v)
		}
	}
}
