package tile

import (
	"math/rand"
	"testing"
)

var decodeSink uint32

// BenchmarkDecode times DecodeBatch over one 65,536-tuple TileBits-12
// tile per codec, the decode layer every kernel loop sits on. ns/edge is
// the metric to compare across codecs; the tuples are the same sorted
// set in all three encodings.
func BenchmarkDecode(b *testing.B) {
	const bits, tuples = 12, 1 << 16
	const rowBase, colBase = 3 << bits, 5 << bits
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, tuples)
	for i := range keys {
		keys[i] = V3Key(uint32(rng.Intn(1<<bits)), uint32(rng.Intn(1<<bits)), bits)
	}
	v3 := AppendV3(nil, keys, bits) // sorts keys in place
	snb := make([]byte, tuples*SNBTupleBytes)
	raw := make([]byte, tuples*RawTupleBytes)
	for i, k := range keys {
		s, d := k>>bits, k&(1<<bits-1)
		PutSNB(snb[i*SNBTupleBytes:], uint16(s), uint16(d))
		PutRaw(raw[i*RawTupleBytes:], rowBase+s, colBase+d)
	}
	for _, bc := range []struct {
		codec Codec
		data  []byte
	}{{CodecSNB, snb}, {CodecRaw, raw}, {CodecV3, v3}} {
		b.Run(bc.codec.String(), func(b *testing.B) {
			var src, dst [V3BlockTuples]uint32
			b.SetBytes(int64(len(bc.data)))
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				var sum uint32
				seen := 0
				for data := bc.data; len(data) > 0; {
					n, rest, err := DecodeBatch(bc.codec, data, rowBase, colBase, &src, &dst)
					if err != nil {
						b.Fatal(err)
					}
					for i := 0; i < n; i++ {
						sum += src[i] ^ dst[i]
					}
					seen += n
					data = rest
				}
				if seen != tuples {
					b.Fatalf("decoded %d tuples, want %d", seen, tuples)
				}
				decodeSink += sum
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tuples, "ns/edge")
		})
	}
}
