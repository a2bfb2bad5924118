// Package delta adds a write path to converted G-Store graphs in the
// log-structured style of GraphChi-DB and BigSparse: edge mutations are
// made durable in a write-ahead log, applied to an in-memory delta
// keyed by tile, and periodically flushed to a sorted, checksummed
// delta snapshot next to the base graph. Readers merge base ∪ delta at
// dispatch time — the base tile files are never rewritten, so the
// convert-once read path (checksums, caching, selective fetch) is
// untouched.
//
// Semantics are those of a simple graph layered over the immutable
// base: an insert ensures the edge is present, a delete ensures it is
// absent (masking every base occurrence). The vertex set is fixed at
// conversion time. Mutations become visible to queries at iteration
// boundaries: the engine captures one immutable View per sweep
// iteration, so a kernel never observes a half-applied batch.
package delta

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/fsutil"
	"github.com/gwu-systems/gstore/internal/tile"
	"github.com/gwu-systems/gstore/internal/wal"
)

// Op is one edge mutation. Del false inserts (ensures presence), true
// deletes (ensures absence). Endpoints are full vertex IDs; for
// undirected graphs either orientation may be given.
type Op struct {
	Del      bool
	Src, Dst uint32
}

// key packs a stored tuple's full endpoint IDs.
func key(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

// TileDelta is one tile's accumulated mutations: a mask over base
// tuples plus the encoded inserted tuples. Immutable once published in
// a View (the merge cache below is the one internal, mutex-guarded
// exception).
type TileDelta struct {
	// state maps a stored tuple key to its desired presence: true means
	// exactly one occurrence (inserted, or surviving a re-insert after
	// delete), false means zero (every base occurrence masked). Keys
	// absent from the map keep their base multiplicity.
	state map[uint64]bool
	// ins holds the encoded tuples for the present keys, sorted by
	// (src, dst), in the graph's insert encoding (insCodec: the graph's
	// own fixed-width codec, or SNB offsets for a v3 graph).
	ins []byte

	// Merge cache: a delta tile's merged data is identical on every
	// dispatch of a view generation (the TileDelta is immutable and the
	// base tile never changes), so the first Merge result is memoized.
	// cloning for the next generation starts with an empty cache.
	mergeMu   sync.Mutex
	merged    []byte
	mergedFor int // len(baseData)+1 the cache was built from, 0 when empty
}

// insCodec is the encoding of a TileDelta's ins buffer for a graph using
// codec c: v3 inserts are staged as fixed-width SNB offset tuples (the
// offsets always fit — TileBits <= 16) and only block-encoded during
// Merge; fixed-width graphs stage inserts in their own codec.
func insCodec(c tile.Codec) tile.Codec {
	if c == tile.CodecV3 {
		return tile.CodecSNB
	}
	return c
}

// Masked reports whether base occurrences of (src, dst) are suppressed.
// Every key in the delta masks the base: present keys are re-emitted
// exactly once through Ins, which is how "insert" deduplicates a
// multigraph base edge down to the simple-graph semantics.
func (td *TileDelta) Masked(src, dst uint32) bool {
	_, ok := td.state[key(src, dst)]
	return ok
}

// Ins returns the encoded inserted tuples (sorted). Callers must not
// modify the slice.
func (td *TileDelta) Ins() []byte { return td.ins }

// Merge produces the tile's effective data in the graph's codec c: base
// tuples not masked by the delta plus the inserted tuples (appended for
// fixed-width codecs, merged into sorted block order for v3). baseData
// may be nil (a delta-only tile) and is never modified, so pooled cache
// bytes stay pristine. bits is the graph's TileBits (used by the v3
// re-encode; ignored otherwise).
//
// A corrupt base — a trailing partial tuple, or broken v3 block
// structure — is surfaced as an error instead of being silently dropped,
// matching what tile.DecodeTuples rejects.
//
// The result is memoized: a view's TileDelta is immutable and the base
// tile's bytes never change, so every dispatch of a view generation
// returns the same buffer without re-merging. Callers must treat the
// returned slice as read-only.
func (td *TileDelta) Merge(baseData []byte, c tile.Codec, bits uint, rowBase, colBase uint32) ([]byte, error) {
	td.mergeMu.Lock()
	defer td.mergeMu.Unlock()
	if td.mergedFor == len(baseData)+1 {
		return td.merged, nil
	}
	out, err := td.mergeLocked(baseData, c, bits, rowBase, colBase)
	if err != nil {
		return nil, err
	}
	// The guard is len(baseData)+1 so the zero value (0) never matches,
	// even for an empty base.
	td.merged, td.mergedFor = out, len(baseData)+1
	return out, nil
}

// mergeKeyPool recycles the v3 merge path's packed-key scratch across
// tiles and views: the keys are only an intermediate representation
// (AppendV3 copies them into the encoded result), so the slice can be
// reused as soon as one merge finishes. Capacity-capped on return so a
// single huge tile cannot pin its scratch forever.
var mergeKeyPool = sync.Pool{New: func() any { return new([]uint32) }}

const maxPooledMergeKeys = 1 << 21 // 8 MiB of uint32 scratch

func (td *TileDelta) mergeLocked(baseData []byte, c tile.Codec, bits uint, rowBase, colBase uint32) ([]byte, error) {
	if c == tile.CodecV3 {
		// Decode base and inserts to packed offset keys, drop masked base
		// tuples, and re-encode; AppendV3 restores sorted block order.
		kp := mergeKeyPool.Get().(*[]uint32)
		keys := (*kp)[:0]
		if want := int(int64(len(baseData)/2) + int64(len(td.ins)/tile.SNBTupleBytes)); cap(keys) < want {
			keys = make([]uint32, 0, want)
		}
		err := tile.DecodeTuples(baseData, tile.CodecV3, rowBase, colBase, func(s, d uint32) {
			if _, ok := td.state[key(s, d)]; ok {
				return
			}
			keys = append(keys, tile.V3Key(s-rowBase, d-colBase, bits))
		})
		if err != nil {
			*kp = keys[:0]
			mergeKeyPool.Put(kp)
			return nil, fmt.Errorf("delta: merge base tile: %w", err)
		}
		for i := 0; i+tile.SNBTupleBytes <= len(td.ins); i += tile.SNBTupleBytes {
			so, do := tile.GetSNB(td.ins[i:])
			keys = append(keys, tile.V3Key(uint32(so), uint32(do), bits))
		}
		out := tile.AppendV3(nil, keys, bits)
		if cap(keys) <= maxPooledMergeKeys {
			*kp = keys[:0]
			mergeKeyPool.Put(kp)
		}
		return out, nil
	}
	tb := int(c.TupleBytes())
	if len(baseData)%tb != 0 {
		return nil, fmt.Errorf("delta: merge base tile: %d bytes is not a whole number of %d-byte tuples (corrupt tile)",
			len(baseData), tb)
	}
	snb := c == tile.CodecSNB
	out := make([]byte, 0, len(baseData)+len(td.ins))
	for i := 0; i+tb <= len(baseData); i += tb {
		var s, d uint32
		if snb {
			so, do := tile.GetSNB(baseData[i:])
			s, d = rowBase+uint32(so), colBase+uint32(do)
		} else {
			s, d = tile.GetRaw(baseData[i:])
		}
		if _, ok := td.state[key(s, d)]; ok {
			continue
		}
		out = append(out, baseData[i:i+tb]...)
	}
	return append(out, td.ins...), nil
}

// rebuildIns regenerates the sorted encoded insert buffer from state. c
// is the graph's codec; the buffer uses insCodec(c).
func (td *TileDelta) rebuildIns(c tile.Codec, widthMask uint32) {
	keys := make([]uint64, 0, len(td.state))
	for k, present := range td.state {
		if present {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ic := insCodec(c)
	tb := int(ic.TupleBytes())
	td.ins = make([]byte, len(keys)*tb)
	for i, k := range keys {
		s, d := uint32(k>>32), uint32(k)
		if ic == tile.CodecSNB {
			tile.PutSNB(td.ins[i*tb:], uint16(s&widthMask), uint16(d&widthMask))
		} else {
			tile.PutRaw(td.ins[i*tb:], s, d)
		}
	}
}

// clone returns a mutable copy (state deep-copied, ins shared until
// rebuilt, merge cache not carried over — the clone is about to change).
func (td *TileDelta) clone() *TileDelta {
	c := &TileDelta{state: make(map[uint64]bool, len(td.state)+1), ins: td.ins}
	for k, v := range td.state {
		c.state[k] = v
	}
	return c
}

// View is an immutable snapshot of the delta layer. The engine captures
// one per sweep iteration and merges it into every dispatched tile.
type View struct {
	upto  uint64 // last WAL sequence number applied
	tiles map[int]*TileDelta
	deg   map[uint32]int32 // net degree change per touched vertex
	// insTuples / maskedKeys summarize the view for stats.
	insTuples  int64
	maskedKeys int64
}

// Upto returns the last WAL sequence number the view covers.
func (v *View) Upto() uint64 { return v.upto }

// Tile returns the delta for disk index di, or nil.
func (v *View) Tile(di int) *TileDelta {
	if v == nil {
		return nil
	}
	return v.tiles[di]
}

// NumTiles reports how many tiles carry delta data.
func (v *View) NumTiles() int {
	if v == nil {
		return 0
	}
	return len(v.tiles)
}

// TileIndexes returns the disk indexes with delta data, ascending.
func (v *View) TileIndexes() []int {
	idx := make([]int, 0, len(v.tiles))
	for di := range v.tiles {
		idx = append(idx, di)
	}
	sort.Ints(idx)
	return idx
}

// Empty reports whether the view carries no mutations at all.
func (v *View) Empty() bool { return v == nil || (len(v.tiles) == 0 && len(v.deg) == 0) }

// Degrees overlays the view's degree changes on a base source. A nil
// base returns nil (the graph carries no degree file).
func (v *View) Degrees(base tile.DegreeSource) tile.DegreeSource {
	if base == nil || v == nil || len(v.deg) == 0 {
		return base
	}
	return &degreeOverlay{base: base, delta: v.deg}
}

type degreeOverlay struct {
	base  tile.DegreeSource
	delta map[uint32]int32
}

func (o *degreeOverlay) Degree(v uint32) uint32 {
	d := int64(o.base.Degree(v)) + int64(o.delta[v])
	if d < 0 {
		return 0 // defensive; Apply keeps deltas consistent with the base
	}
	return uint32(d)
}

func (o *degreeOverlay) SizeBytes() int64 {
	return o.base.SizeBytes() + int64(len(o.delta))*8
}

// Options configures a Store.
type Options struct {
	// WALSegmentBytes is the WAL rotation threshold (zero: the wal
	// package default).
	WALSegmentBytes int64
	// FlushEveryOps flushes a delta snapshot automatically after this
	// many applied stored-tuple changes (zero disables auto-flush;
	// callers flush explicitly or on Close).
	FlushEveryOps int64
	// OnFsync observes WAL fsync durations (metrics hook).
	OnFsync func(d time.Duration)
	// FS routes all file operations of the store, its WAL, and its
	// snapshots; nil selects the real filesystem.
	FS faultfs.FS
}

// Stats is a point-in-time summary of a Store.
type Stats struct {
	Seq             uint64 // last acknowledged WAL sequence number
	WALAppends      uint64 // Append calls acknowledged this process
	WALSegment      int    // current WAL segment number
	Flushes         uint64 // snapshots written this process
	DeltaTiles      int    // tiles carrying delta data
	InsTuples       int64  // inserted tuples across all tiles
	MaskedKeys      int64  // masked (deleted or re-inserted) tuple keys
	ReplaySegments  int    // WAL segments replayed at Open
	ReplayRecords   int    // WAL records replayed at Open
	ReplayOps       int64  // mutations reapplied from the WAL at Open
	ReplayTornBytes int64  // torn WAL tail discarded at Open
}

// Store is the mutable layer over one base graph. Apply is safe for
// concurrent use; reads go through View and never block writers.
type Store struct {
	g    *tile.Graph
	base string
	opts Options
	fs   faultfs.FS

	mu          sync.Mutex // serializes Apply/Flush/Close
	w           *wal.W     // lazily created on first Apply
	seq         uint64
	gen         int // newest snapshot generation on disk
	sinceFlush  int64
	closed      bool
	walAppends  atomic.Uint64
	flushes     atomic.Uint64
	replayStats wal.ReplayStats
	replayOps   int64

	view atomic.Pointer[View]
}

// Open attaches the delta layer to the graph at base (the path passed
// to tile.Open). The newest valid snapshot is loaded and any WAL
// records beyond it are replayed, so every mutation acknowledged before
// a crash is visible again. A graph with no snapshot and no WAL opens
// with an empty view and touches nothing on disk until the first Apply.
func Open(g *tile.Graph, base string, opts Options) (*Store, error) {
	s := &Store{g: g, base: base, opts: opts, fs: faultfs.Default(opts.FS)}
	// A crash mid-flush can strand a half-staged snapshot (*.tmp*); sweep
	// this graph's litter before loading state so it cannot accumulate.
	if _, err := fsutil.RemoveTemps(s.fs, filepath.Dir(base), filepath.Base(base)+"."); err != nil {
		return nil, fmt.Errorf("delta: removing stale temp files for %s: %w", base, err)
	}
	v, gen, err := loadNewestSnapshot(s.fs, base, g)
	if err != nil {
		return nil, err
	}
	s.gen = gen
	if v == nil {
		v = &View{}
	}
	s.seq = v.upto

	// Crash recovery: reapply WAL records past the snapshot horizon.
	st, err := wal.ReplayFS(s.fs, walDir(base), func(payload []byte) error {
		seq, ops, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if seq <= v.upto {
			return nil // already covered by the snapshot
		}
		nv, _, err := s.applyToView(v, ops, seq)
		if err != nil {
			return err
		}
		v = nv
		s.replayOps += int64(len(ops))
		if seq > s.seq {
			s.seq = seq
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("delta: WAL recovery for %s: %w", base, err)
	}
	s.replayStats = st
	s.view.Store(v)
	return s, nil
}

// View returns the current immutable view (never nil).
func (s *Store) View() *View { return s.view.Load() }

// Failed returns the sticky write-path failure poisoning this store's
// WAL, or nil while it is healthy. A failed store rejects every Apply
// (errors.Is(err, wal.ErrFailed)) but keeps serving reads; the owner
// should surface the degradation (read-only mode) rather than retry.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	return s.w.Failed()
}

// Stats summarizes the store.
func (s *Store) Stats() Stats {
	v := s.View()
	s.mu.Lock()
	st := Stats{
		Seq:             s.seq,
		WALAppends:      s.walAppends.Load(),
		Flushes:         s.flushes.Load(),
		ReplaySegments:  s.replayStats.Segments,
		ReplayRecords:   s.replayStats.Records,
		ReplayOps:       s.replayOps,
		ReplayTornBytes: s.replayStats.TornBytes,
	}
	if s.w != nil {
		st.WALSegment = s.w.Segment()
	}
	s.mu.Unlock()
	st.DeltaTiles = v.NumTiles()
	if v != nil {
		st.InsTuples = v.insTuples
		st.MaskedKeys = v.maskedKeys
	}
	return st
}

// Apply validates ops, makes them durable in the WAL (group-committed
// fsync), applies them to a fresh view, and publishes it. On return the
// batch is crash-safe: a reopened store replays it from the log. The
// returned count is the number of stored-tuple state changes (0 for a
// fully redundant batch — still logged, so acknowledgment is uniform).
func (s *Store) Apply(ops []Op) (changed int, err error) {
	nv := s.g.Meta.NumVertices
	for _, op := range ops {
		if op.Src >= nv || op.Dst >= nv {
			return 0, &BadOpError{Op: op, NumVertices: nv}
		}
	}
	if len(ops) == 0 {
		return 0, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("delta: store closed")
	}
	if s.w == nil {
		w, err := wal.Open(walDir(s.base), wal.Options{
			SegmentBytes: s.opts.WALSegmentBytes,
			OnFsync:      s.opts.OnFsync,
			FS:           s.opts.FS,
		})
		if err != nil {
			return 0, err
		}
		s.w = w
	}
	seq := s.seq + 1
	if err := s.w.Append(encodeRecord(seq, ops)); err != nil {
		return 0, err
	}
	s.walAppends.Add(1)
	s.seq = seq

	cur := s.view.Load()
	next, changed, err := s.applyToView(cur, ops, seq)
	if err != nil {
		// The record is durable but unappliable — only possible for an
		// internal invariant breach, since ops were validated above.
		return 0, err
	}
	s.view.Store(next)
	s.sinceFlush += int64(changed)
	if s.opts.FlushEveryOps > 0 && s.sinceFlush >= s.opts.FlushEveryOps {
		if err := s.flushLocked(); err != nil {
			return changed, fmt.Errorf("delta: auto-flush: %w", err)
		}
	}
	return changed, nil
}

// BadOpError reports a mutation referencing a vertex outside the
// graph's fixed vertex set.
type BadOpError struct {
	Op          Op
	NumVertices uint32
}

func (e *BadOpError) Error() string {
	return fmt.Sprintf("delta: edge (%d, %d) outside the graph's %d vertices (the vertex set is fixed at conversion)",
		e.Op.Src, e.Op.Dst, e.NumVertices)
}

// storedTuples expands one logical mutation into the stored tuples it
// touches, mirroring the converter's forEachStored: half layouts store
// the canonical (min, max) direction once; full undirected layouts
// store both directions (self loops once); directed graphs store the
// edge as given.
func (s *Store) storedTuples(op Op, visit func(di int, src, dst uint32)) {
	layout := s.g.Layout
	src, dst := op.Src, op.Dst
	if layout.Half && src > dst {
		src, dst = dst, src
	}
	visit(layout.DiskIndex(layout.TileOf(src), layout.TileOf(dst)), src, dst)
	if !s.g.Meta.Directed && !layout.Half && src != dst {
		visit(layout.DiskIndex(layout.TileOf(dst), layout.TileOf(src)), dst, src)
	}
}

// applyToView produces a new view with ops applied on top of cur
// (copy-on-write: untouched tiles are shared). changed counts stored
// tuples whose effective count changed.
func (s *Store) applyToView(cur *View, ops []Op, seq uint64) (*View, int, error) {
	next := &View{
		upto:       seq,
		tiles:      make(map[int]*TileDelta, len(cur.tiles)+4),
		deg:        make(map[uint32]int32, len(cur.deg)+4),
		insTuples:  cur.insTuples,
		maskedKeys: cur.maskedKeys,
	}
	for di, td := range cur.tiles {
		next.tiles[di] = td
	}
	for v, d := range cur.deg {
		next.deg[v] = d
	}

	// First pass: find tuple keys entering the delta for the first time;
	// their base multiplicity has to be counted from the base tile.
	newKeys := make(map[int]map[uint64]uint32) // di -> key -> base count
	for _, op := range ops {
		s.storedTuples(op, func(di int, src, dst uint32) {
			if td := next.tiles[di]; td != nil {
				if _, ok := td.state[key(src, dst)]; ok {
					return
				}
			}
			m := newKeys[di]
			if m == nil {
				m = make(map[uint64]uint32)
				newKeys[di] = m
			}
			m[key(src, dst)] = 0
		})
	}
	var buf []byte
	for di, keys := range newKeys {
		if s.g.TupleCount(di) == 0 {
			continue
		}
		data, err := s.g.ReadTile(di, buf)
		if err != nil {
			return nil, 0, fmt.Errorf("delta: counting base occurrences in tile %d: %w", di, err)
		}
		buf = data
		c := s.g.Layout.CoordAt(di)
		rb, _ := s.g.Layout.VertexRange(c.Row)
		cb, _ := s.g.Layout.VertexRange(c.Col)
		if err := tile.DecodeTuples(data, s.g.Meta.TupleCodec(), rb, cb, func(src, dst uint32) {
			k := key(src, dst)
			if n, ok := keys[k]; ok {
				keys[k] = n + 1
			}
		}); err != nil {
			return nil, 0, err
		}
	}

	// Second pass: state transitions with exact degree deltas.
	changed := 0
	touched := make(map[int]bool)
	widthMask := s.g.Layout.TileWidth() - 1
	for _, op := range ops {
		del := op.Del
		s.storedTuples(op, func(di int, src, dst uint32) {
			td := next.tiles[di]
			if td == nil {
				td = &TileDelta{state: make(map[uint64]bool)}
			} else if !touched[di] {
				td = td.clone()
			}
			k := key(src, dst)
			var before int64
			if present, ok := td.state[k]; ok {
				if present {
					before = 1
				}
			} else {
				before = int64(newKeys[di][k])
			}
			var after int64
			if !del {
				after = 1
			}
			if before == after {
				return // redundant mutation: no state change
			}
			if _, ok := td.state[k]; !ok {
				next.maskedKeys++
			}
			td.state[k] = !del
			next.tiles[di] = td
			touched[di] = true
			changed++
			d := int32(after - before)
			next.deg[src] += d
			if s.g.Layout.Half && src != dst {
				next.deg[dst] += d
			}
		})
	}
	for di := range touched {
		td := next.tiles[di]
		oldIns := len(td.ins)
		td.rebuildIns(s.g.Meta.TupleCodec(), widthMask)
		tb := int(insCodec(s.g.Meta.TupleCodec()).TupleBytes())
		next.insTuples += int64(len(td.ins)/tb) - int64(oldIns/tb)
		// A tile whose delta degenerated to "nothing masked, nothing
		// inserted" could be dropped, but a mask entry with zero base
		// occurrences is harmless and keeping it keeps accounting simple.
	}
	// Drop zero entries from the degree overlay so it stays sparse.
	for v, d := range next.deg {
		if d == 0 {
			delete(next.deg, v)
		}
	}
	return next, changed, nil
}

// Flush writes the current view to a new snapshot generation, rotates
// the WAL, and deletes the covered segments and older snapshots. A
// no-op when the view is empty and nothing was ever logged.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("delta: store closed")
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	v := s.view.Load()
	if v.Empty() && s.w == nil {
		return nil
	}
	if err := writeSnapshot(s.fs, s.base, s.gen+1, v); err != nil {
		return err
	}
	if err := s.fs.CrashPoint("delta.flush.after-snapshot"); err != nil {
		return err
	}
	s.gen++
	s.flushes.Add(1)
	s.sinceFlush = 0
	if s.w != nil {
		newSeg, err := s.w.Rotate()
		if err != nil {
			return err
		}
		if err := s.fs.CrashPoint("delta.flush.after-rotate"); err != nil {
			return err
		}
		if err := s.w.TruncateBefore(newSeg); err != nil {
			return err
		}
		if err := s.fs.CrashPoint("delta.flush.after-truncate"); err != nil {
			return err
		}
	}
	return removeSnapshotsBelow(s.fs, s.base, s.gen)
}

// Close flushes (making WAL replay on next open a no-op) and releases
// the WAL. The WAL is released even when the flush fails — a poisoned
// or crashing store must not leak its segment descriptor — and the
// flush error wins.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	ferr := s.flushLocked()
	if s.w != nil {
		cerr := s.w.Close()
		s.w = nil
		if ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}
