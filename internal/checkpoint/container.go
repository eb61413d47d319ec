package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"microslip/internal/lbm"
)

var magic = [4]byte{'M', 'S', 'C', 'K'}

// Version is the container format version, the only one written or
// read: files of any other version fail with ErrVersion.
const Version = 4

// prefixLen is magic + version + header length; frameLen adds the two
// CRC words: the size of a container with empty header and no planes.
const (
	prefixLen = 4 + 2 + 4
	frameLen  = prefixLen + 4 + 4
)

// chunkBytes bounds the buffer the planes stream through — with the
// header, the only transient memory of a save or load, however large
// the lattice. A multiple of both word widths.
const chunkBytes = 256 << 10

// kind tags what a container holds, so a loader handed another kind of
// file fails typed instead of misreading it.
type kind uint8

const (
	kindState kind = iota + 1
	kindRefined
	kindRank
	kindCommit
)

// stateMeta is the scalar part of one lbm.State.
type stateMeta struct {
	Params *lbm.Params
	Step   int
}

// meta is a container's header, the only gob-encoded part of a file: the
// kind, that kind's scalars, and the shape of every plane group.
type meta struct {
	Kind kind
	// NComp is the component count: a file holds NComp plane groups per
	// state (kindState one state, kindRefined three) or per field
	// (kindRank: distributions, then densities when persisted).
	NComp int
	// State is the snapshot of kindState, the global run of kindRefined.
	State stateMeta
	// The rest of a lbm.RefinedState; Levels in its block order.
	Spec         lbm.RefineSpec
	M0, RawDrift []float64
	Levels       [3]stateMeta
	// A RankState's scalars.
	Phase, Rank, Start int
	// Manifest is the payload of kindCommit, which has no planes.
	Manifest *Manifest
	// Groups is the shape table of the planes, in file order.
	Groups []group
}

// group describes Planes planes of Len values each, stored back to back
// as Width-byte little-endian IEEE-754 words (8: float64, 4: float32).
type group struct{ Planes, Len, Width int }

// planes is one group's data on the way to disk.
type planes struct {
	p     [][]float64
	width int
}

// container is a file read back: its header and one [plane][value]
// table per group.
type container struct {
	meta
	bulk [][][]float64
}

// writeContainer streams one container to w: the framed header, then
// every plane of bulk straight from its slice through one chunk buffer
// into w and the running CRC. It fills in m.Groups from bulk.
func writeContainer(w io.Writer, m *meta, bulk []planes) error {
	m.Groups = make([]group, len(bulk))
	total := 0
	for i, g := range bulk {
		if len(g.p) == 0 || len(g.p[0]) == 0 {
			return fmt.Errorf("checkpoint: plane group %d is empty", i)
		}
		m.Groups[i] = group{Planes: len(g.p), Len: len(g.p[0]), Width: g.width}
		total += len(g.p) * len(g.p[0]) * g.width
	}
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	hdr.Write(make([]byte, prefixLen-len(magic)))
	if err := gob.NewEncoder(&hdr).Encode(m); err != nil {
		return fmt.Errorf("checkpoint: encode header: %w", err)
	}
	binary.BigEndian.PutUint16(hdr.Bytes()[4:], Version)
	binary.BigEndian.PutUint32(hdr.Bytes()[6:], uint32(hdr.Len()-prefixLen))

	crc := crc32.NewIEEE()
	crc.Write(hdr.Bytes())
	hdr.Write(binary.BigEndian.AppendUint32(nil, crc.Sum32()))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	hashed := io.MultiWriter(w, crc)
	buf := make([]byte, min(chunkBytes, total))
	for i, g := range bulk {
		for _, pl := range g.p {
			if len(pl) != m.Groups[i].Len {
				return fmt.Errorf("checkpoint: plane group %d mixes planes of %d and %d values", i, m.Groups[i].Len, len(pl))
			}
			for per := chunkBytes / g.width; len(pl) > 0; {
				n := min(per, len(pl))
				encodeWords(buf, pl[:n], g.width)
				if _, err := hashed.Write(buf[:n*g.width]); err != nil {
					return fmt.Errorf("checkpoint: write planes: %w", err)
				}
				pl = pl[n:]
			}
		}
	}
	if _, err := w.Write(binary.BigEndian.AppendUint32(nil, crc.Sum32())); err != nil {
		return fmt.Errorf("checkpoint: write checksum: %w", err)
	}
	return nil
}

// encodeWords stores vals into dst as width-byte little-endian words.
func encodeWords(dst []byte, vals []float64, width int) {
	if width == 4 {
		for i, v := range vals {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
		}
		return
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// decodeWords is the inverse of encodeWords; float32 words widen
// exactly, so a reduced-precision round trip is bit-stable.
func decodeWords(dst []float64, src []byte, width int) {
	if width == 4 {
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
		}
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// streamLen reports how many bytes r still holds. Loaders check a
// header's declared lengths against it before allocating for them, so
// they read files and in-memory readers only.
func streamLen(r io.Reader) (int64, error) {
	switch s := r.(type) {
	case *os.File:
		fi, err := s.Stat()
		if err != nil {
			return 0, fmt.Errorf("checkpoint: %w", err)
		}
		return fi.Size(), nil
	case interface{ Len() int }:
		return int64(s.Len()), nil
	}
	return 0, fmt.Errorf("checkpoint: cannot size a %T; load from a file or an in-memory reader", r)
}

// readContainer reads one container from r: header and planes each
// verified against their CRC, and every length the file declares
// checked against the bytes r holds before anything is allocated for
// it.
func readContainer(r io.Reader) (*container, error) {
	size, err := streamLen(r)
	if err != nil {
		return nil, err
	}
	corrupt := func(format string, args ...any) (*container, error) {
		return nil, fmt.Errorf("checkpoint: "+format+": %w", append(args, ErrCorrupt)...)
	}
	crc := crc32.NewIEEE()
	hashed := io.TeeReader(r, crc)
	// sumOK compares the running CRC with the stored word that follows.
	sumOK := func() bool {
		var sum [4]byte
		_, err := io.ReadFull(r, sum[:])
		return err == nil && crc.Sum32() == binary.BigEndian.Uint32(sum[:])
	}

	var pre [prefixLen]byte
	if n, _ := io.ReadFull(hashed, pre[:6]); n < 6 || !bytes.Equal(pre[:4], magic[:]) {
		return corrupt("bad magic %q in a %d-byte file", pre[:min(n, 4)], size)
	}
	if v := binary.BigEndian.Uint16(pre[4:]); v != Version {
		return nil, fmt.Errorf("checkpoint: version %d, supported %d: %w", v, Version, ErrVersion)
	}
	rest := size - frameLen // header + planes
	if _, err := io.ReadFull(hashed, pre[6:]); err != nil || rest < 0 {
		return corrupt("%d-byte file", size)
	}
	hlen := int64(binary.BigEndian.Uint32(pre[6:]))
	if hlen > rest {
		return corrupt("header of %d bytes in a %d-byte file", hlen, size)
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(hashed, hdr); err != nil || !sumOK() {
		return corrupt("header unreadable or fails its crc")
	}
	var c container
	if err := gob.NewDecoder(bytes.NewReader(hdr)).Decode(&c.meta); err != nil {
		return corrupt("decode header: %v", err)
	}
	rest -= hlen
	buf := make([]byte, min(chunkBytes, rest))
	for i, g := range c.Groups {
		if g.Planes < 1 || g.Len < 1 || (g.Width != 4 && g.Width != 8) ||
			int64(g.Planes) > rest/int64(g.Width) || int64(g.Len) > rest/int64(g.Width)/int64(g.Planes) {
			return corrupt("group %d of %d x %d x %d bytes with %d left in the file", i, g.Planes, g.Len, g.Width, rest)
		}
		rest -= int64(g.Planes) * int64(g.Len) * int64(g.Width)
	}
	if rest != 0 {
		return corrupt("%d bytes beyond the declared planes", rest)
	}

	c.bulk = make([][][]float64, len(c.Groups))
	for i, g := range c.Groups {
		vals := make([]float64, g.Planes*g.Len)
		c.bulk[i] = make([][]float64, g.Planes)
		for x := range c.bulk[i] {
			c.bulk[i][x] = vals[x*g.Len : (x+1)*g.Len : (x+1)*g.Len]
		}
		for per := chunkBytes / g.Width; len(vals) > 0; {
			n := min(per, len(vals))
			if _, err := io.ReadFull(hashed, buf[:n*g.Width]); err != nil {
				return corrupt("read planes: %v", err)
			}
			decodeWords(vals[:n], buf, g.Width)
			vals = vals[n:]
		}
	}
	if !sumOK() {
		return corrupt("planes fail the trailer crc")
	}
	return &c, nil
}

// expect checks that the container is of kind want and holds one of the
// given numbers of plane groups per component.
func (c *container) expect(want kind, perComp ...int) error {
	for _, n := range perComp {
		if c.Kind == want && c.NComp >= 1 && len(c.bulk) == n*c.NComp {
			return nil
		}
	}
	return fmt.Errorf("checkpoint: kind %d file with %d plane groups for %d components, want kind %d: %w",
		c.Kind, len(c.bulk), c.NComp, want, ErrCorrupt)
}
