package tile

import (
	"encoding/binary"
	"fmt"
)

// The SNB (smallest number of bits) tuple encoding, §IV-B: inside tile
// [i,j] every source vertex lies in [i*2^b, (i+1)*2^b) and every
// destination in [j*2^b, (j+1)*2^b), so the high bits are implied by the
// tile coordinates and only the low b bits of each endpoint are stored.
// With the paper's b=16 a tuple is 4 bytes: uint16 src offset, uint16 dst
// offset, little endian.

// PutSNB encodes one tuple into buf[:4].
func PutSNB(buf []byte, srcOff, dstOff uint16) {
	binary.LittleEndian.PutUint16(buf[0:2], srcOff)
	binary.LittleEndian.PutUint16(buf[2:4], dstOff)
}

// GetSNB decodes one tuple from buf[:4].
func GetSNB(buf []byte) (srcOff, dstOff uint16) {
	return binary.LittleEndian.Uint16(buf[0:2]), binary.LittleEndian.Uint16(buf[2:4])
}

// PutRaw encodes a full 8-byte tuple (no SNB; used by the Figure 10
// "symmetry only" ablation).
func PutRaw(buf []byte, src, dst uint32) {
	binary.LittleEndian.PutUint32(buf[0:4], src)
	binary.LittleEndian.PutUint32(buf[4:8], dst)
}

// GetRaw decodes a full 8-byte tuple.
func GetRaw(buf []byte) (src, dst uint32) {
	return binary.LittleEndian.Uint32(buf[0:4]), binary.LittleEndian.Uint32(buf[4:8])
}

// DecodeBatch decodes the leading batch of data's tuples in codec c into
// the caller's src/dst arrays and returns the tuple count n and the
// undecoded remainder: one whole v3 block, or up to V3BlockTuples
// fixed-width tuples. rowBase and colBase are the first vertex IDs of
// the tile's row and column ranges (ignored for raw tuples, which carry
// full IDs). Kernels keep src/dst on their stack and loop over decoded
// pairs, so the codec switch runs once per batch, not per edge. It
// returns an error if data is not a whole number of tuples (fixed-width
// codecs) or the block is corrupt (v3).
func DecodeBatch(c Codec, data []byte, rowBase, colBase uint32, src, dst *[V3BlockTuples]uint32) (n int, rest []byte, err error) {
	switch c {
	case CodecV3:
		return decodeV3Block(data, rowBase, colBase, src, dst)
	case CodecSNB:
		if len(data)%SNBTupleBytes != 0 {
			return 0, nil, fmt.Errorf("tile: %d bytes is not a whole number of SNB tuples", len(data))
		}
		n = min(len(data)/SNBTupleBytes, V3BlockTuples)
		s, d := src[:n], dst[:n]
		for i := range s {
			// One 32-bit load: src offset in the low half, dst in the high.
			t := binary.LittleEndian.Uint32(data[i*SNBTupleBytes:])
			s[i], d[i] = rowBase+t&0xffff, colBase+t>>16
		}
		return n, data[n*SNBTupleBytes:], nil
	}
	if len(data)%RawTupleBytes != 0 {
		return 0, nil, fmt.Errorf("tile: %d bytes is not a whole number of raw tuples", len(data))
	}
	n = min(len(data)/RawTupleBytes, V3BlockTuples)
	s, d := src[:n], dst[:n]
	for i := range s {
		t := binary.LittleEndian.Uint64(data[i*RawTupleBytes:])
		s[i], d[i] = uint32(t), uint32(t>>32)
	}
	return n, data[n*RawTupleBytes:], nil
}

// DecodeTuples iterates over the tuples of one tile's data (or any whole
// number of its tuples or v3 blocks) in codec c, batch by batch through
// DecodeBatch. It returns DecodeBatch's error, with the failing block's
// index for v3.
func DecodeTuples(data []byte, c Codec, rowBase, colBase uint32, fn func(src, dst uint32)) error {
	var src, dst [V3BlockTuples]uint32
	for block := 0; len(data) > 0; block++ {
		n, rest, err := DecodeBatch(c, data, rowBase, colBase, &src, &dst)
		if err != nil {
			if c == CodecV3 {
				err = fmt.Errorf("%w (block %d)", err, block)
			}
			return err
		}
		for i := 0; i < n; i++ {
			fn(src[i], dst[i])
		}
		data = rest
	}
	return nil
}

// Compact degree encoding, §IV-C: each vertex gets a 2-byte entry. If the
// degree is below 2^15 it is stored directly with the MSB clear; otherwise
// the MSB is set and the low 15 bits index an overflow array holding the
// full 32-bit degree. The paper notes the optimization applies only while
// the number of large-degree vertices stays below 2^15.

const (
	degreeEscape   = uint16(0x8000)
	maxSmallDegree = uint32(0x7fff)
	maxOverflow    = 1 << 15
)

// DegreeSource answers degree queries for the algorithms that need them
// (PageRank divides by out-degree; §IV-C). Implementations are the compact
// DegreeTable and the PlainDegrees fallback.
type DegreeSource interface {
	Degree(v uint32) uint32
	SizeBytes() int64
}

// PlainDegrees is the uncompressed fallback used when a graph has too many
// high-degree vertices for the compact encoding.
type PlainDegrees []uint32

// Degree returns the degree of vertex v.
func (p PlainDegrees) Degree(v uint32) uint32 { return p[v] }

// SizeBytes reports the 4-bytes-per-vertex footprint.
func (p PlainDegrees) SizeBytes() int64 { return int64(len(p)) * 4 }

// DegreeTable is the in-memory form of a compact degree array.
type DegreeTable struct {
	Small    []uint16
	Overflow []uint32
}

// ErrDegreeOverflow reports that a graph has too many high-degree vertices
// for the compact encoding; callers fall back to a plain uint32 array.
var ErrDegreeOverflow = fmt.Errorf("tile: more than %d vertices exceed degree %d", maxOverflow, maxSmallDegree)

// EncodeDegrees builds the compact representation of deg.
func EncodeDegrees(deg []uint32) (*DegreeTable, error) {
	t := &DegreeTable{Small: make([]uint16, len(deg))}
	for v, d := range deg {
		if d <= maxSmallDegree {
			t.Small[v] = uint16(d)
			continue
		}
		if len(t.Overflow) >= maxOverflow {
			return nil, ErrDegreeOverflow
		}
		t.Small[v] = degreeEscape | uint16(len(t.Overflow))
		t.Overflow = append(t.Overflow, d)
	}
	return t, nil
}

// Degree returns the degree of vertex v.
func (t *DegreeTable) Degree(v uint32) uint32 {
	s := t.Small[v]
	if s&degreeEscape == 0 {
		return uint32(s)
	}
	return t.Overflow[s&^degreeEscape]
}

// Decode expands the table back into a plain slice.
func (t *DegreeTable) Decode() []uint32 {
	out := make([]uint32, len(t.Small))
	for v := range t.Small {
		out[v] = t.Degree(uint32(v))
	}
	return out
}

// SizeBytes reports the storage footprint of the compact encoding.
func (t *DegreeTable) SizeBytes() int64 {
	return int64(len(t.Small))*2 + int64(len(t.Overflow))*4
}
