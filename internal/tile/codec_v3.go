package tile

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Codec names a tuple encoding for tile data. Raw and SNB are the
// fixed-width v1/v2 encodings; V3 is the compressed block encoding of
// format version 3: within every tile the tuples are sorted by
// (source offset, destination offset) and packed into fixed-size decode
// blocks of at most V3BlockTuples tuples. Each block is framed by a
// uvarint byte length so readers can walk block boundaries without
// decoding, and each block restarts the delta chains, so any block can be
// decoded independently — that is what lets mem.TileRef.Chunks split a v3
// tile into parallel work items at block boundaries.
//
// Inside a block each tuple stores:
//
//	uvarint srcDelta  — source offset minus the previous tuple's source
//	                    offset (the block's first tuple encodes its source
//	                    offset absolutely, i.e. a delta from zero)
//	uvarint dstField  — when the tuple starts a new source run (first in
//	                    block, or srcDelta > 0): the absolute destination
//	                    offset; otherwise the delta from the previous
//	                    destination offset (non-negative, tuples sorted)
type Codec uint8

const (
	// CodecSNB is the 4-byte smallest-number-of-bits tuple encoding
	// (§IV-B): two little-endian uint16 in-tile offsets.
	CodecSNB Codec = iota
	// CodecRaw is the 8-byte encoding with full 32-bit vertex IDs.
	CodecRaw
	// CodecV3 is the sorted delta+varint block encoding (format v3).
	CodecV3
)

// V3BlockTuples is the maximum tuple count per v3 decode block. 512
// tuples keep a block around 1-1.5 KiB — small enough that chunked
// dispatch retains fine-grained work items, large enough that the restart
// overhead (one absolute source+destination) is amortized away.
const V3BlockTuples = 512

// v3MaxField bounds a decoded varint field: offsets and deltas are
// in-tile quantities (TileBits <= 16), so anything above 2^17 is corrupt,
// well before uint32 accumulation could wrap.
const v3MaxField = 1 << 17

// ParseCodec maps a codec name from flags or the meta header to a Codec.
// The empty string selects SNB, the format default.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "snb":
		return CodecSNB, nil
	case "raw":
		return CodecRaw, nil
	case "v3":
		return CodecV3, nil
	}
	return CodecSNB, fmt.Errorf("tile: unknown codec %q (want snb, raw or v3)", s)
}

// String returns the canonical name recorded in meta headers.
func (c Codec) String() string {
	switch c {
	case CodecSNB:
		return "snb"
	case CodecRaw:
		return "raw"
	case CodecV3:
		return "v3"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// SNB reports whether the codec stores in-tile offsets (so decoding needs
// the tile's row/column vertex bases) rather than full vertex IDs.
func (c Codec) SNB() bool { return c != CodecRaw }

// TupleBytes returns the fixed per-tuple size, or 0 for the
// variable-width V3 codec.
func (c Codec) TupleBytes() int64 {
	switch c {
	case CodecSNB:
		return SNBTupleBytes
	case CodecRaw:
		return RawTupleBytes
	}
	return 0
}

// FormatVersion returns the tile format version a codec is stored under.
func (c Codec) FormatVersion() int {
	if c == CodecV3 {
		return VersionV3
	}
	return Version
}

// V3Key packs a tuple's in-tile offsets into the sortable key the v3
// encoder consumes: source offset in the high bits, destination offset in
// the low bits bits. Plain uint32 ordering of keys is exactly the
// (source, destination) tuple order.
func V3Key(srcOff, dstOff uint32, bits uint) uint32 {
	return srcOff<<bits | dstOff
}

// AppendV3 encodes the tuples represented by keys (as packed by V3Key
// with the same bits) into the v3 block format, appending to dst. keys is
// sorted in place if not already sorted; duplicates are preserved.
func AppendV3(dst []byte, keys []uint32, bits uint) []byte {
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	mask := uint32(1)<<bits - 1
	var payload []byte
	var tmp [binary.MaxVarintLen32]byte
	for off := 0; off < len(keys); off += V3BlockTuples {
		end := off + V3BlockTuples
		if end > len(keys) {
			end = len(keys)
		}
		payload = payload[:0]
		payload = binary.AppendUvarint(payload, uint64(end-off))
		prevSrc, prevDst := uint32(0), uint32(0)
		for i, k := range keys[off:end] {
			src, dstOff := k>>bits, k&mask
			payload = binary.AppendUvarint(payload, uint64(src-prevSrc))
			if i == 0 || src != prevSrc {
				payload = binary.AppendUvarint(payload, uint64(dstOff))
			} else {
				payload = binary.AppendUvarint(payload, uint64(dstOff-prevDst))
			}
			prevSrc, prevDst = src, dstOff
		}
		n := binary.PutUvarint(tmp[:], uint64(len(payload)))
		dst = append(dst, tmp[:n]...)
		dst = append(dst, payload...)
	}
	return dst
}

// decodeV3Block decodes the leading block of data into src/dst, adding
// rowBase/colBase to the decoded offsets. It validates the block as it
// goes and returns a descriptive error on any framing or varint
// corruption.
func decodeV3Block(data []byte, rowBase, colBase uint32, src, dst *[V3BlockTuples]uint32) (int, []byte, error) {
	payload, rest, err := v3Frame(data)
	if err != nil {
		return 0, nil, err
	}
	count, k := binary.Uvarint(payload)
	if k <= 0 || count == 0 || count > V3BlockTuples {
		return 0, nil, fmt.Errorf("tile: v3 block has bad tuple count %d", count)
	}
	payload = payload[k:]
	n := int(count)
	prevSrc, prevDst := uint32(0), uint32(0)
	for i := 0; i < n; i++ {
		var srcDelta, dstField uint64
		if len(payload) >= 2 && payload[0] < 0x80 && payload[1] < 0x80 {
			// Both fields fit one byte, the common case inside a run.
			srcDelta, dstField = uint64(payload[0]), uint64(payload[1])
			payload = payload[2:]
		} else {
			var k int
			srcDelta, k = binary.Uvarint(payload)
			if k <= 0 || srcDelta > v3MaxField {
				return 0, nil, fmt.Errorf("tile: v3 block tuple %d has corrupt source delta", i)
			}
			payload = payload[k:]
			dstField, k = binary.Uvarint(payload)
			if k <= 0 || dstField > v3MaxField {
				return 0, nil, fmt.Errorf("tile: v3 block tuple %d has corrupt destination field", i)
			}
			payload = payload[k:]
		}
		s := prevSrc + uint32(srcDelta)
		d := uint32(dstField)
		if i > 0 && srcDelta == 0 {
			d += prevDst
		}
		if d > v3MaxField {
			return 0, nil, fmt.Errorf("tile: v3 block tuple %d destination offset out of range", i)
		}
		src[i], dst[i] = rowBase+s, colBase+d
		prevSrc, prevDst = s, d
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("tile: v3 block has %d trailing bytes after %d tuples", len(payload), n)
	}
	return n, rest, nil
}

// v3Frame splits the leading block off data: the uvarint length prefix
// and the payload it frames.
func v3Frame(data []byte) (payload, rest []byte, err error) {
	size, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("tile: v3 block has a corrupt length prefix")
	}
	if size == 0 || size > uint64(len(data)-n) {
		return nil, nil, fmt.Errorf("tile: v3 block claims %d payload bytes, %d remain", size, len(data)-n)
	}
	return data[n : n+int(size)], data[n+int(size):], nil
}

// ValidateV3Frames walks the block framing of a v3 tile without decoding
// tuple payloads: every length prefix must parse, stay in bounds, and the
// frames must cover data exactly. The engine runs this on the hot read
// path after the CRC check (cheap — a handful of varint reads per block);
// full payload validation is done by DecodeTuples, fsck and Verify.
func ValidateV3Frames(data []byte) error {
	for block := 0; len(data) > 0; block++ {
		payload, rest, err := v3Frame(data)
		if err != nil {
			return fmt.Errorf("%w (block %d)", err, block)
		}
		count, n := binary.Uvarint(payload)
		if n <= 0 || count == 0 || count > V3BlockTuples {
			return fmt.Errorf("tile: v3 block %d has bad tuple count %d", block, count)
		}
		// Each tuple is at least two varint bytes.
		if uint64(len(payload)-n) < 2*count {
			return fmt.Errorf("tile: v3 block %d payload too short for %d tuples", block, count)
		}
		data = rest
	}
	return nil
}

// SplitV3 splits a v3 tile into views of whole decode blocks, each view
// at most chunkBytes long (a single oversized block still forms its own
// view, so progress is always made). It returns nil when the framing is
// corrupt — callers fall back to dispatching the whole tile, whose decode
// will report the corruption.
func SplitV3(data []byte, chunkBytes int64) [][]byte {
	if len(data) == 0 {
		return nil
	}
	var out [][]byte
	viewStart, pos := 0, 0
	for pos < len(data) {
		_, rest, err := v3Frame(data[pos:])
		if err != nil {
			return nil
		}
		next := len(data) - len(rest)
		if next-viewStart > int(chunkBytes) && pos > viewStart {
			out = append(out, data[viewStart:pos])
			viewStart = pos
		}
		pos = next
	}
	return append(out, data[viewStart:])
}
