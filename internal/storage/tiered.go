package storage

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// TieredStore implements the cold/warm split the paper recommends for
// a backup-dominated workload (§3.2.2, citing Facebook's f4): objects
// land in the hot tier and migrate to a cheaper cold tier once they
// have not been read for ColdAfter; a read of a cold chunk promotes it
// back. The store tracks the byte-hours spent in each tier so the
// cost benefit can be quantified against per-tier prices.
//
// Placement state is sharded by digest like MemStore, so tier
// bookkeeping does not serialize concurrent chunk traffic.
type TieredStore struct {
	hot, cold ChunkStore
	coldAfter time.Duration
	now       func() time.Time

	shards []tierShard
	mask   uint32

	// Ingest accounting owned by the tiered view itself, so Stats()
	// reflects the logical store across both tiers and is not skewed
	// by migration traffic hitting the per-tier counters.
	puts        atomic.Int64
	dedupHits   atomic.Int64
	bytesStored atomic.Int64
	chunks      atomic.Int64
	bytes       atomic.Int64
}

type tierShard struct {
	mu        sync.Mutex
	lastRead  map[Sum]time.Time
	placedHot map[Sum]bool
	sizes     map[Sum]int64
	tstats    TierStats
}

// TierStats reports tiering behaviour and accumulated occupancy.
type TierStats struct {
	Demotions  int64
	Promotions int64
	ColdReads  int64
	HotReads   int64
	// Byte-hours accumulated by chunks resident in each tier; cost is
	// byteHours x per-tier price. Updated on Migrate and on reads.
	HotByteHours  float64
	ColdByteHours float64
}

// NewTieredStore combines a hot and a cold store. coldAfter is the
// idle period after which a chunk is demoted (the paper's finding —
// over 80% of uploads unread after a week — makes even 1-2 days
// effective).
func NewTieredStore(hot, cold ChunkStore, coldAfter time.Duration, now func() time.Time) *TieredStore {
	if now == nil {
		now = time.Now
	}
	n := defaultShards()
	t := &TieredStore{
		hot: hot, cold: cold,
		coldAfter: coldAfter,
		now:       now,
		shards:    make([]tierShard, n),
		mask:      uint32(n - 1),
	}
	for i := range t.shards {
		t.shards[i].lastRead = make(map[Sum]time.Time)
		t.shards[i].placedHot = make(map[Sum]bool)
		t.shards[i].sizes = make(map[Sum]int64)
	}
	return t
}

func (t *TieredStore) shardIndex(sum Sum) uint32 {
	return binary.LittleEndian.Uint32(sum[:4]) & t.mask
}

func (t *TieredStore) shard(sum Sum) *tierShard {
	return &t.shards[t.shardIndex(sum)]
}

// Put stores into the hot tier. A Put whose content is already known
// to either tier is a dedup hit and touches neither backing store, so
// re-uploading a demoted chunk does not resurrect an unaccounted hot
// copy.
func (t *TieredStore) Put(sum Sum, data []byte) error {
	return t.PutCtx(context.Background(), sum, data)
}

// PutCtx implements CtxStore, forwarding the trace context to the
// backing tier (the tier bookkeeping itself is memory-speed).
func (t *TieredStore) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	if _, err := verifyPut(ctx, sum, data); err != nil {
		return err
	}
	t.puts.Add(1)
	t.bytesStored.Add(int64(len(data)))

	s := t.shard(sum)
	s.mu.Lock()
	_, known := s.sizes[sum]
	s.mu.Unlock()
	if known {
		t.dedupHits.Add(1)
		return nil
	}

	// The placement maps report the chunk as held the moment the hot put
	// returns, so that put must be durable by then: no deferred fsync.
	if err := PutCtx(withoutSyncGroup(ctx), t.hot, sum, data); err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.sizes[sum]; !ok {
		s.sizes[sum] = int64(len(data))
		s.lastRead[sum] = t.now()
		s.placedHot[sum] = true
		t.chunks.Add(1)
		t.bytes.Add(int64(len(data)))
	} else {
		// Raced with an identical Put that registered first.
		t.dedupHits.Add(1)
	}
	s.mu.Unlock()
	return nil
}

// Get reads from whichever tier holds the chunk, promoting cold hits.
func (t *TieredStore) Get(sum Sum) ([]byte, error) {
	return t.GetCtx(context.Background(), sum)
}

// GetCtx implements CtxStore, forwarding the trace context to
// whichever tier serves the read.
func (t *TieredStore) GetCtx(ctx context.Context, sum Sum) ([]byte, error) {
	s := t.shard(sum)
	s.mu.Lock()
	hot := s.placedHot[sum]
	_, known := s.sizes[sum]
	s.mu.Unlock()
	if !known {
		return nil, ErrNotFound
	}

	if hot {
		data, err := GetCtx(ctx, t.hot, sum)
		if err == nil {
			s.mu.Lock()
			s.tstats.HotReads++
			s.lastRead[sum] = t.now()
			s.mu.Unlock()
			return data, nil
		}
		if err != ErrNotFound {
			return nil, err
		}
		// A concurrent Migrate demoted the chunk between our placement
		// check and the hot read; fall through to the cold tier.
	}

	data, err := GetCtx(ctx, t.cold, sum)
	if err != nil {
		return nil, err
	}
	// Promote: the user is active on this content again. The cold tier
	// checked the bytes on the way out; the hot tier need not re-hash.
	if err := PutCtx(withVerified(ctx, sealFrame(sum, data)), t.hot, sum, data); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.tstats.ColdReads++
	if !s.placedHot[sum] {
		// Concurrent readers of one cold chunk all copy it up, but the
		// placement flips — and counts as a promotion — once.
		s.tstats.Promotions++
		s.placedHot[sum] = true
	}
	s.lastRead[sum] = t.now()
	s.mu.Unlock()
	return data, nil
}

// GetReaderCtx implements ReaderStore: a hot-placed chunk streams
// through the hot tier's own reader (pin-counted and zero-copy when
// that tier is a DiskStore), updating the read-recency bookkeeping
// exactly like GetCtx. Cold hits take the materializing GetCtx path
// so promotion still happens, then serve the promoted bytes.
func (t *TieredStore) GetReaderCtx(ctx context.Context, sum Sum) (*ChunkReader, error) {
	s := t.shard(sum)
	s.mu.Lock()
	hot := s.placedHot[sum]
	_, known := s.sizes[sum]
	s.mu.Unlock()
	if !known {
		return nil, ErrNotFound
	}
	if hot {
		rd, err := GetReader(ctx, t.hot, sum)
		if err == nil {
			s.mu.Lock()
			s.tstats.HotReads++
			s.lastRead[sum] = t.now()
			s.mu.Unlock()
			return rd, nil
		}
		if err != ErrNotFound {
			return nil, err
		}
		// Demoted between the placement check and the hot read; the
		// GetCtx below finds it in the cold tier.
	}
	data, err := t.GetCtx(ctx, sum)
	if err != nil {
		return nil, err
	}
	return NewBytesReader(data), nil
}

// Has implements ChunkStore.
func (t *TieredStore) Has(sum Sum) bool {
	s := t.shard(sum)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sizes[sum]
	return ok
}

// Stats aggregates the logical store across both tiers: unique chunks
// and bytes are whatever the placement maps track (each chunk counts
// once, whichever tier holds it), and the Put counters are the tiered
// store's own ingest accounting — migration and promotion copies do
// not inflate them.
func (t *TieredStore) Stats() StoreStats {
	return StoreStats{
		Chunks:      int(t.chunks.Load()),
		Bytes:       t.bytes.Load(),
		Puts:        t.puts.Load(),
		DedupHits:   t.dedupHits.Load(),
		BytesStored: t.bytesStored.Load(),
	}
}

// Migrate demotes every hot chunk idle for longer than coldAfter and
// accrues tier byte-hours up to now. Call it periodically (the service
// would run it as a background job). It returns the number demoted.
//
// Each demotion is atomic with respect to the shard state: the idle
// check is re-run under the shard lock (a concurrent Get may have
// refreshed lastRead since the candidate scan), and the copy to cold,
// hot delete, and placement flip happen with the lock held, so a
// failure leaves the chunk either fully hot (cold.Put failed — no
// state changed) or fully cold (placement flipped only after the cold
// copy succeeded).
func (t *TieredStore) Migrate() (int, error) {
	now := t.now()
	demoted := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		var demote []Sum
		for sum, hot := range s.placedHot {
			if hot && now.Sub(s.lastRead[sum]) > t.coldAfter {
				demote = append(demote, sum)
			}
		}
		s.mu.Unlock()

		for _, sum := range demote {
			ok, err := t.demoteOne(s, sum, func() bool {
				// Re-check under the lock: a read since the scan keeps
				// the chunk hot, and a delete removes it from play.
				return s.placedHot[sum] && now.Sub(s.lastRead[sum]) > t.coldAfter
			})
			if ok {
				demoted++
			}
			if err != nil {
				return demoted, err
			}
		}
	}
	return demoted, nil
}

// demoteOne moves a single chunk from hot to cold with the shard lock
// held across the copy, delete, and placement flip. eligible runs
// under the lock and aborts the demotion when it returns false. A
// cold.Put failure leaves the chunk fully hot — placement, sizes, and
// tier stats untouched; a hot delete failure after a successful cold
// copy still flips placement (the cold copy is authoritative, the hot
// copy lingers until its store reclaims it) and reports the error.
func (t *TieredStore) demoteOne(s *tierShard, sum Sum, eligible func() bool) (bool, error) {
	s.mu.Lock()
	if !eligible() {
		s.mu.Unlock()
		return false, nil
	}
	data, err := t.hot.Get(sum)
	if err != nil {
		s.mu.Unlock()
		if err == ErrNotFound {
			return false, nil // deleted concurrently; nothing to demote
		}
		return false, err
	}
	if err := PutCtx(withVerified(context.Background(), sealFrame(sum, data)), t.cold, sum, data); err != nil {
		s.mu.Unlock()
		return false, err
	}
	var deleteErr error
	if d, ok := t.hot.(Deleter); ok {
		if err := d.Delete(sum); err != nil && err != ErrNotFound {
			deleteErr = err
		}
	}
	s.placedHot[sum] = false
	s.tstats.Demotions++
	s.mu.Unlock()
	return true, deleteErr
}

// FlushHot demotes every hot-placed chunk to the cold tier regardless
// of idle time. When the hot tier is volatile (the server's RAM tier
// over a durable disk tier), a graceful shutdown must call this before
// closing the cold store, or acknowledged chunks that never sat idle
// long enough for Migrate would be lost with the process.
func (t *TieredStore) FlushHot() (int, error) {
	flushed := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		var demote []Sum
		for sum, hot := range s.placedHot {
			if hot {
				demote = append(demote, sum)
			}
		}
		s.mu.Unlock()

		for _, sum := range demote {
			ok, err := t.demoteOne(s, sum, func() bool {
				return s.placedHot[sum]
			})
			if ok {
				flushed++
			}
			if err != nil {
				return flushed, err
			}
		}
	}
	return flushed, nil
}

// AdoptCold registers a chunk already resident in the cold store —
// typically one recovered from disk after a restart, when the
// in-memory placement maps start empty — as cold-placed. A chunk the
// store already tracks is left untouched.
func (t *TieredStore) AdoptCold(sum Sum, size int64) {
	s := t.shard(sum)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sizes[sum]; ok {
		return
	}
	s.sizes[sum] = size
	s.placedHot[sum] = false
	s.lastRead[sum] = t.now()
	t.chunks.Add(1)
	t.bytes.Add(size)
}

// Delete removes a chunk from whichever tiers hold it and from the
// placement maps, so the garbage collector reclaims tiered space like
// any other store's.
func (t *TieredStore) Delete(sum Sum) error {
	s := t.shard(sum)
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.sizes[sum]
	if !ok {
		return ErrNotFound
	}
	// Both tiers may hold bytes (a promoted chunk leaves its cold copy
	// behind); try each and tolerate the one that never had it.
	for _, tier := range []ChunkStore{t.hot, t.cold} {
		if d, ok := tier.(Deleter); ok {
			if err := d.Delete(sum); err != nil && err != ErrNotFound {
				return err
			}
		}
	}
	delete(s.sizes, sum)
	delete(s.placedHot, sum)
	delete(s.lastRead, sum)
	t.chunks.Add(-1)
	t.bytes.Add(-size)
	return nil
}

// Range implements Ranger across both tiers: the sizes maps track the
// logical store, so every chunk is visited exactly once regardless of
// its current placement.
func (t *TieredStore) Range(f func(sum Sum, size int64) bool) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		entries := make([]struct {
			sum  Sum
			size int64
		}, 0, len(s.sizes))
		for sum, size := range s.sizes {
			entries = append(entries, struct {
				sum  Sum
				size int64
			}{sum, size})
		}
		s.mu.Unlock()
		for _, e := range entries {
			if !f(e.sum, e.size) {
				return
			}
		}
	}
}

// AccrueOccupancy adds dt of residency to the tier byte-hour counters
// for every chunk (the simulation clock advances in steps).
func (t *TieredStore) AccrueOccupancy(dt time.Duration) {
	hours := dt.Hours()
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for sum, hot := range s.placedHot {
			bh := float64(s.sizes[sum]) * hours
			if hot {
				s.tstats.HotByteHours += bh
			} else {
				s.tstats.ColdByteHours += bh
			}
		}
		s.mu.Unlock()
	}
}

// TierStats returns a snapshot aggregated across shards.
func (t *TieredStore) TierStats() TierStats {
	var st TierStats
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		st.Demotions += s.tstats.Demotions
		st.Promotions += s.tstats.Promotions
		st.ColdReads += s.tstats.ColdReads
		st.HotReads += s.tstats.HotReads
		st.HotByteHours += s.tstats.HotByteHours
		st.ColdByteHours += s.tstats.ColdByteHours
		s.mu.Unlock()
	}
	return st
}

// Cost evaluates storage cost given per-tier prices in arbitrary
// units per byte-hour.
func (s TierStats) Cost(hotPrice, coldPrice float64) float64 {
	return s.HotByteHours*hotPrice + s.ColdByteHours*coldPrice
}

// HotOnlyCost is the counterfactual of keeping everything hot.
func (s TierStats) HotOnlyCost(hotPrice float64) float64 {
	return (s.HotByteHours + s.ColdByteHours) * hotPrice
}
