package storage

import (
	"context"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
)

// ChunkStore is a content-addressed store of fixed-size chunks, and
// the one contract every tier implements. Every transfer takes the
// request's context: it carries the request's span (see
// internal/tracing), the proof that an ingress already verified a
// put's bytes (see verifyPut) and the request's sync group (see
// withSyncGroup), so a wrapper cannot forward a put or a read without
// them. Implementations must be safe for concurrent use.
type ChunkStore interface {
	CtxStore
	ReaderStore
	// Has reports whether the chunk exists.
	Has(sum Sum) bool
	// Stats returns a snapshot of store counters.
	Stats() StoreStats
}

// MultiHaser is an optional ChunkStore extension answering many
// existence checks in one call. On a replicated store each Has is a
// network round trip; MultiHas batches the probes per replica owner.
type MultiHaser interface {
	// MultiHas reports, for each digest, whether the chunk exists.
	MultiHas(sums []Sum) []bool
}

// multiHas answers a batch of existence checks, using the store's
// batched path when it has one.
func multiHas(s ChunkStore, sums []Sum) []bool {
	if mh, ok := s.(MultiHaser); ok {
		return mh.MultiHas(sums)
	}
	out := make([]bool, len(sums))
	for i, sum := range sums {
		out[i] = s.Has(sum)
	}
	return out
}

// CtxStore is the put and get half of ChunkStore. Stores record child
// spans under the context for the time they spend — replication
// fan-out, segment appends, fsync waits, reads.
type CtxStore interface {
	// PutCtx stores data under its digest. Storing content that already
	// exists is not an error; it increments the dedup counter.
	PutCtx(ctx context.Context, sum Sum, data []byte) error
	// GetCtx returns the chunk bytes, or ErrNotFound.
	GetCtx(ctx context.Context, sum Sum) ([]byte, error)
}

// PutCtx is s.PutCtx(ctx, sum, data). Nothing in this module calls it;
// it stays only for the benchmark module's tests, and goes once they
// call the method.
func PutCtx(ctx context.Context, s ChunkStore, sum Sum, data []byte) error {
	return s.PutCtx(ctx, sum, data)
}

// Ranger is an optional ChunkStore extension enumerating held chunks,
// used by the tiering migrator, the /v1/cluster/chunks listing and
// the rebalancer.
type Ranger interface {
	// Range calls f for each chunk until f returns false.
	Range(f func(sum Sum, size int64) bool)
}

// StoreStats reports chunk store occupancy and dedup effectiveness.
type StoreStats struct {
	Chunks      int   // unique chunks held
	Bytes       int64 // unique bytes held
	Puts        int64 // total puts
	DedupHits   int64 // puts that found existing content
	BytesStored int64 // total bytes offered across all puts
}

// DedupRatio returns the fraction of offered bytes that deduplication
// avoided storing.
func (s StoreStats) DedupRatio() float64 {
	if s.BytesStored == 0 {
		return 0
	}
	return 1 - float64(s.Bytes)/float64(s.BytesStored)
}

// defaultShards is next-pow2(GOMAXPROCS·4): enough shards that a
// fully loaded machine rarely lands two cores on the same lock, at a
// fixed footprint of a few dozen map headers.
func defaultShards() int {
	return nextPow2(runtime.GOMAXPROCS(0) * 4)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// MemStore is an in-memory ChunkStore. The key space is split across
// power-of-two shards selected by the leading bytes of the MD5 digest
// — MD5 output is uniform, so shards stay balanced with no rehashing
// — and each shard has its own lock, so concurrent Puts and Gets of
// distinct chunks do not contend. Counters are atomics; Stats is a
// near-point-in-time snapshot rather than a fully consistent one.
type MemStore struct {
	shards []memShard
	mask   uint32

	puts        atomic.Int64
	dedupHits   atomic.Int64
	bytesStored atomic.Int64
	chunks      atomic.Int64
	bytes       atomic.Int64
}

// memShard is padded out to a cache line so neighbouring shard locks
// do not false-share under write-heavy load.
type memShard struct {
	mu     sync.RWMutex
	chunks map[Sum][]byte
	_      [64 - 32]byte
}

// NewMemStore returns an empty in-memory chunk store with the default
// shard count.
func NewMemStore() *MemStore { return NewMemStoreShards(0) }

// NewMemStoreShards returns an empty store with n shards, rounded up
// to a power of two. n <= 0 selects next-pow2(GOMAXPROCS·4).
func NewMemStoreShards(n int) *MemStore {
	if n <= 0 {
		n = defaultShards()
	}
	n = nextPow2(n)
	m := &MemStore{shards: make([]memShard, n), mask: uint32(n - 1)}
	for i := range m.shards {
		m.shards[i].chunks = make(map[Sum][]byte)
	}
	return m
}

// Shards reports the shard count (for startup logging).
func (m *MemStore) Shards() int { return len(m.shards) }

func (m *MemStore) shard(sum Sum) *memShard {
	return &m.shards[binary.LittleEndian.Uint32(sum[:4])&m.mask]
}

// PutCtx implements ChunkStore. The data slice is copied; the context
// matters only for the proof that spares an already-verified put its
// hash.
func (m *MemStore) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	if _, err := verifyPut(ctx, sum, data); err != nil {
		return err
	}
	m.puts.Add(1)
	m.bytesStored.Add(int64(len(data)))
	sh := m.shard(sum)
	sh.mu.Lock()
	if _, ok := sh.chunks[sum]; ok {
		sh.mu.Unlock()
		m.dedupHits.Add(1)
		return nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	sh.chunks[sum] = cp
	sh.mu.Unlock()
	m.chunks.Add(1)
	m.bytes.Add(int64(len(data)))
	return nil
}

// GetCtx implements ChunkStore.
func (m *MemStore) GetCtx(_ context.Context, sum Sum) ([]byte, error) {
	sh := m.shard(sum)
	sh.mu.RLock()
	data, ok := sh.chunks[sum]
	sh.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return data, nil
}

// GetReaderCtx implements ChunkStore: the reader wraps the resident
// slice without copying — chunk payloads are content-immutable, so
// sharing is safe for the reader's lifetime.
func (m *MemStore) GetReaderCtx(ctx context.Context, sum Sum) (*ChunkReader, error) {
	data, err := m.GetCtx(ctx, sum)
	if err != nil {
		return nil, err
	}
	return NewBytesReader(data), nil
}

// Has implements ChunkStore.
func (m *MemStore) Has(sum Sum) bool {
	sh := m.shard(sum)
	sh.mu.RLock()
	_, ok := sh.chunks[sum]
	sh.mu.RUnlock()
	return ok
}

// Stats implements ChunkStore.
func (m *MemStore) Stats() StoreStats {
	return StoreStats{
		Chunks:      int(m.chunks.Load()),
		Bytes:       m.bytes.Load(),
		Puts:        m.puts.Load(),
		DedupHits:   m.dedupHits.Load(),
		BytesStored: m.bytesStored.Load(),
	}
}

// Range implements Ranger: it visits every held chunk. The snapshot
// is per-shard consistent; chunks inserted or deleted concurrently
// may or may not be seen.
func (m *MemStore) Range(f func(sum Sum, size int64) bool) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		// Copy the shard's keys so f runs without holding the lock
		// (f may call back into the store).
		entries := make([]struct {
			sum  Sum
			size int64
		}, 0, len(sh.chunks))
		for sum, data := range sh.chunks {
			entries = append(entries, struct {
				sum  Sum
				size int64
			}{sum, int64(len(data))})
		}
		sh.mu.RUnlock()
		for _, e := range entries {
			if !f(e.sum, e.size) {
				return
			}
		}
	}
}

// Delete removes a chunk, freeing its space (used by the garbage
// collector once the last referencing file is gone).
func (m *MemStore) Delete(sum Sum) error {
	sh := m.shard(sum)
	sh.mu.Lock()
	data, ok := sh.chunks[sum]
	if !ok {
		sh.mu.Unlock()
		return ErrNotFound
	}
	delete(sh.chunks, sum)
	sh.mu.Unlock()
	m.chunks.Add(-1)
	m.bytes.Add(-int64(len(data)))
	return nil
}
