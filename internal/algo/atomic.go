package algo

import "sync/atomic"

// Atomic primitives shared by the kernels. Tiles are processed by many
// goroutines and — because a tile touches both its row and column ranges
// under symmetry storage — row-partitioning alone cannot make metadata
// writes private, so the kernels use lock-free updates.

// atomicMinUint32 lowers *p to v if v is smaller. Reports whether it
// changed the value.
func atomicMinUint32(p *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, v) {
			return true
		}
	}
}

// atomicMaxUint32 raises *p to v if larger; reports whether it changed.
func atomicMaxUint32(p *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(p)
		if v <= old {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, v) {
			return true
		}
	}
}

// atomicMinInt32 lowers *p to v if smaller; reports whether it changed.
func atomicMinInt32(p *int32, v int32) bool {
	for {
		old := atomic.LoadInt32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt32(p, old, v) {
			return true
		}
	}
}

// orUint64 sets the bits v in *p; it does nothing if they are all set.
func orUint64(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old&v == v {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, old|v) {
			return
		}
	}
}

// bitset is an atomic bitmap over vertex or tile indices.
type bitset struct {
	words []uint64
}

func newBitset(n uint32) *bitset {
	return &bitset{words: make([]uint64, (uint64(n)+63)/64)}
}

// Set atomically sets bit i and reports whether it was previously clear.
func (b *bitset) Set(i uint32) bool {
	w := &b.words[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// Has reports bit i (atomically loaded).
func (b *bitset) Has(i uint32) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(uint64(1)<<(i&63)) != 0
}

// Clear zeroes the whole set (not concurrent-safe).
func (b *bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SizeBytes reports the bitmap's footprint.
func (b *bitset) SizeBytes() int64 { return int64(len(b.words)) * 8 }
