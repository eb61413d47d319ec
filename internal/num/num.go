// Package num defines the floating-point type constraint shared by the
// mixed-precision solver core and the wire encoding that ships float32
// payloads over the repo's []float64 message-passing substrate.
//
// The LBM kernels, the plane/slab storage, and the sequential solver
// are generic over Float (see internal/lbm, internal/field); the
// distributed solver keeps float64 arithmetic but can quantize its
// halo, frame, and migration payloads to float32 on the wire. Because
// the comm layer's unit of transfer is the float64 word, a float32 wire
// payload packs two values per word: PackF32Words/UnpackF32Words below.
package num

import "math"

// Float constrains the solver's scalar type: IEEE 754 single or double
// precision.
type Float interface {
	~float32 | ~float64
}

// PackedWords returns the number of float64 words needed to carry n
// float32 values, two per word (the last word is half-padded when n is
// odd).
func PackedWords(n int) int { return (n + 1) / 2 }

// PackF32Words quantizes src to float32 and packs the resulting bit
// patterns two per float64 word into dst, reusing its capacity when
// possible; it returns the (possibly grown) buffer of exactly
// PackedWords(len(src)) words. The packed words are opaque bit
// carriers: they are only ever copied, never used in arithmetic, so any
// transport that moves float64 payloads bit-faithfully (both in-process
// and TCP transports here do) delivers them intact.
func PackF32Words(dst, src []float64) []float64 {
	n := len(src)
	words := PackedWords(n)
	if cap(dst) < words {
		dst = make([]float64, words)
	}
	dst = dst[:words]
	for w := 0; w < n/2; w++ {
		lo := uint64(math.Float32bits(float32(src[2*w])))
		hi := uint64(math.Float32bits(float32(src[2*w+1])))
		dst[w] = math.Float64frombits(lo | hi<<32)
	}
	if n%2 == 1 {
		lo := uint64(math.Float32bits(float32(src[n-1])))
		dst[words-1] = math.Float64frombits(lo)
	}
	return dst
}

// UnpackF32Words expands n float32 values packed by PackF32Words back
// into float64s, reusing dst's capacity when possible, and returns the
// (possibly grown) buffer of exactly n values. src must hold
// PackedWords(n) words.
func UnpackF32Words(dst, src []float64, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for w := 0; w < n/2; w++ {
		bits := math.Float64bits(src[w])
		dst[2*w] = float64(math.Float32frombits(uint32(bits)))
		dst[2*w+1] = float64(math.Float32frombits(uint32(bits >> 32)))
	}
	if n%2 == 1 {
		bits := math.Float64bits(src[len(src)-1])
		dst[n-1] = float64(math.Float32frombits(uint32(bits)))
	}
	return dst
}
