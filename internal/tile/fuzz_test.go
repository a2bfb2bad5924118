package tile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for every on-disk parser: corrupted files must produce
// errors, never panics or silent acceptance of inconsistent state.

func FuzzMetaParse(f *testing.F) {
	good, _ := json.Marshal(&Meta{
		Magic: Magic, Version: Version, Name: "x",
		NumVertices: 8, NumStored: 9, NumOriginal: 9,
		TileBits: 2, GroupQ: 1, Half: true, SNB: true,
	})
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"GSTORE-TILES","version":1}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p := filepath.Join(dir, "g")
		if err := os.WriteFile(p+".meta", data, 0o644); err != nil {
			t.Skip()
		}
		m, err := readMeta(p)
		if err != nil {
			return
		}
		// Anything accepted must satisfy the validated invariants.
		if m.Magic != Magic || (m.Version != Version && m.Version != VersionV1) ||
			m.NumVertices == 0 ||
			m.TileBits == 0 || m.TileBits > 16 || (m.Directed && m.Half) {
			t.Fatalf("invalid meta accepted: %+v", m)
		}
		// A v2 header may only be accepted with an intact manifest.
		if m.Version >= Version && m.Manifest == nil {
			t.Fatalf("v2 meta accepted without manifest: %+v", m)
		}
	})
}

func FuzzStartFile(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add(make([]byte, 16), 1)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, 1)
	f.Fuzz(func(t *testing.T, data []byte, numTiles int) {
		if numTiles < 0 || numTiles > 1024 {
			t.Skip()
		}
		dir := t.TempDir()
		p := filepath.Join(dir, "s")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		start, err := readStart(p, numTiles)
		if err != nil {
			return
		}
		if len(start) != numTiles+1 || start[0] != 0 {
			t.Fatalf("invalid start accepted: len=%d first=%d", len(start), start[0])
		}
		for i := 1; i < len(start); i++ {
			if start[i] < start[i-1] {
				t.Fatalf("non-monotonic start accepted at %d", i)
			}
		}
	})
}

func FuzzDegreeFile(f *testing.F) {
	tab, _ := EncodeDegrees([]uint32{1, 2, 70000, 3})
	f.Add(encodeDegreeFile(tab), 4, true)
	f.Add(encodePlainDegreeFile([]uint32{1, 2, 3}), 3, false)
	f.Add([]byte{}, 4, true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 2, false)
	f.Fuzz(func(t *testing.T, data []byte, numVertices int, compact bool) {
		if numVertices < 0 || numVertices > 4096 {
			t.Skip()
		}
		format := "plain"
		if compact {
			format = "compact"
		}
		src, err := decodeDegreeFile(data, numVertices, format)
		if err != nil {
			return
		}
		// Accepted tables must answer every vertex without panicking.
		for v := 0; v < numVertices; v++ {
			_ = src.Degree(uint32(v))
		}
	})
}

func FuzzDecodeTuples(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(CodecSNB))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(CodecRaw))
	f.Add([]byte{1}, uint8(CodecSNB))
	f.Add(AppendV3(nil, []uint32{0, 1, 17, 300}, 12), uint8(CodecV3))
	f.Add([]byte{3, 1, 0}, uint8(CodecV3)) // truncated frame
	// Well framed, but the payload holds a trailing byte after its four
	// tuples: the framing walk accepts it and the decode must not.
	f.Add([]byte("\n\x04000000000"), uint8(CodecV3))
	f.Fuzz(func(t *testing.T, data []byte, codec uint8) {
		c := Codec(codec % 3)
		n := 0
		err := DecodeTuples(data, c, 64, 128, func(s, d uint32) { n++ })
		switch c {
		case CodecV3:
			// Arbitrary bytes may or may not frame; either way no panic.
			// The framing walk checks frames only, not payloads, so a
			// framing error must imply a decode error but not the converse.
			if ferr := ValidateV3Frames(data); ferr != nil && err == nil {
				t.Fatalf("decode accepted data ValidateV3Frames rejects: %v", ferr)
			}
		default:
			w := int(c.TupleBytes())
			if err == nil && n != len(data)/w {
				t.Fatalf("decoded %d tuples from %d bytes", n, len(data))
			}
			if err != nil && len(data)%w == 0 {
				t.Fatalf("aligned data rejected: %v", err)
			}
		}
	})
}

// FuzzV3RoundTrip encodes arbitrary offset pairs at several tile widths
// and requires the decode to return exactly the sorted input.
func FuzzV3RoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 3}, uint8(12))
	f.Add([]byte{9, 9}, uint8(4))
	f.Add([]byte{}, uint8(16))
	f.Fuzz(func(t *testing.T, raw []byte, bits uint8) {
		switch bits {
		case 4, 12, 16:
		default:
			t.Skip()
		}
		mask := uint32(1)<<bits - 1
		var keys []uint32
		for i := 0; i+2 <= len(raw); i += 2 {
			so := (uint32(raw[i]) * 0x9e37) & mask
			do := (uint32(raw[i+1]) * 0x85eb) & mask
			keys = append(keys, V3Key(so, do, uint(bits)))
		}
		want := append([]uint32(nil), keys...)
		data := AppendV3(nil, keys, uint(bits))
		if err := ValidateV3Frames(data); err != nil {
			t.Fatalf("encoder produced invalid framing: %v", err)
		}
		var got []uint32
		if err := DecodeTuples(data, CodecV3, 0, 0, func(s, d uint32) {
			got = append(got, V3Key(s, d, uint(bits)))
		}); err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		sortU32(want)
		if len(got) != len(want) {
			t.Fatalf("round trip: %d tuples in, %d out", len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tuple %d: got key %#x want %#x", i, got[i], want[i])
			}
		}
		// Chunking must partition the data into whole blocks.
		views := SplitV3(data, 16)
		total := 0
		for _, v := range views {
			if err := ValidateV3Frames(v); err != nil {
				t.Fatalf("chunk not block-aligned: %v", err)
			}
			total += len(v)
		}
		if total != len(data) {
			t.Fatalf("chunks cover %d of %d bytes", total, len(data))
		}
	})
}

// FuzzV3Corrupt flips bytes in valid encodings: decode must either error
// or stay inside the field sanity bounds — never panic.
func FuzzV3Corrupt(f *testing.F) {
	seed := AppendV3(nil, []uint32{0, 5, 5, 1 << 20, 1<<24 | 9}, 12)
	f.Add(seed, 0, uint8(0xff))
	f.Add(seed, 1, uint8(0x80))
	f.Fuzz(func(t *testing.T, data []byte, pos int, xor uint8) {
		if len(data) == 0 || xor == 0 {
			t.Skip()
		}
		mut := append([]byte(nil), data...)
		mut[((pos%len(mut))+len(mut))%len(mut)] ^= xor
		_ = DecodeTuples(mut, CodecV3, 0, 0, func(s, d uint32) {})
		_ = ValidateV3Frames(mut)
		_ = SplitV3(mut, 8)
	})
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
