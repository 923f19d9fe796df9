package storage

import (
	"container/list"
	"context"
	"encoding/binary"
	"sync"
)

// CachedStore wraps a backing ChunkStore with a fixed-capacity LRU
// byte cache on the read path. It models the web-cache-proxy
// deployment the paper suggests for popular downloads (§3.1.4: "if a
// handful of popular files dominate the downloads, web cache proxies
// can reduce server workload").
//
// Large caches are split into independent LRU shards (each holding at
// least 64 chunks) so read hits on distinct chunks do not serialize
// on one lock; small caches keep a single exact LRU.
type CachedStore struct {
	backing  ChunkStore
	capacity int64
	shards   []cacheShard
	mask     uint32
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List // front = most recently used
	items    map[Sum]*list.Element

	hits, misses int64
	hitBytes     int64
	missBytes    int64
	evictions    int64
}

type cacheEntry struct {
	sum  Sum
	data []byte
}

// NewCachedStore wraps backing with an LRU cache of capacity bytes,
// sharded when the capacity is large enough that the split cannot
// distort eviction (>= 64 chunks per shard; the count is rounded up to
// a power of two). A smaller cache is one exact LRU.
func NewCachedStore(backing ChunkStore, capacity int64) *CachedStore {
	n := int(capacity / (64 * ChunkSize))
	if d := defaultShards(); n > d {
		n = d
	}
	if n < 1 {
		n = 1
	}
	n = nextPow2(n)
	c := &CachedStore{
		backing:  backing,
		capacity: capacity,
		shards:   make([]cacheShard, n),
		mask:     uint32(n - 1),
	}
	per := capacity / int64(n)
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[Sum]*list.Element)
	}
	return c
}

func (c *CachedStore) shard(sum Sum) *cacheShard {
	return &c.shards[binary.LittleEndian.Uint32(sum[:4])&c.mask]
}

// PutCtx writes through to the backing store; fresh content is not
// admitted to the cache (the workload is read-skewed, and uploads are
// rarely re-read — the paper's key observation).
func (c *CachedStore) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	return c.backing.PutCtx(ctx, sum, data)
}

// GetCtx serves from the cache when possible, falling back to the
// backing store and admitting the result. A hit records no span (it
// is a map lookup); a miss forwards the context so the backing read's
// disk time lands in the trace.
func (c *CachedStore) GetCtx(ctx context.Context, sum Sum) ([]byte, error) {
	s := c.shard(sum)
	s.mu.Lock()
	if el, ok := s.items[sum]; ok {
		s.ll.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		s.hits++
		s.hitBytes += int64(len(data))
		s.mu.Unlock()
		return data, nil
	}
	s.mu.Unlock()

	data, err := c.backing.GetCtx(ctx, sum)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.misses++
	s.missBytes += int64(len(data))
	s.admit(sum, data)
	s.mu.Unlock()
	return data, nil
}

// admit inserts (caller holds s.mu), evicting LRU entries as needed.
func (s *cacheShard) admit(sum Sum, data []byte) {
	if int64(len(data)) > s.capacity {
		return
	}
	if _, ok := s.items[sum]; ok {
		return
	}
	for s.used+int64(len(data)) > s.capacity {
		back := s.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		s.ll.Remove(back)
		delete(s.items, ev.sum)
		s.used -= int64(len(ev.data))
		s.evictions++
	}
	s.items[sum] = s.ll.PushFront(&cacheEntry{sum: sum, data: data})
	s.used += int64(len(data))
}

// GetReaderCtx implements ChunkStore: hits stream the cached slice
// without copying; misses read through GetCtx so the chunk is still
// admitted, then serve the admitted copy from RAM. The cache tier
// therefore trades the backing store's zero-copy disk path for
// RAM-resident re-reads, which is the point of putting it there.
func (c *CachedStore) GetReaderCtx(ctx context.Context, sum Sum) (*ChunkReader, error) {
	data, err := c.GetCtx(ctx, sum)
	if err != nil {
		return nil, err
	}
	return NewBytesReader(data), nil
}

// Has implements ChunkStore.
func (c *CachedStore) Has(sum Sum) bool {
	s := c.shard(sum)
	s.mu.Lock()
	_, ok := s.items[sum]
	s.mu.Unlock()
	if ok {
		return true
	}
	return c.backing.Has(sum)
}

// Stats implements ChunkStore (backing store counters).
func (c *CachedStore) Stats() StoreStats { return c.backing.Stats() }

// Range implements Ranger when the backing store does: the cache is a
// read accelerator, so enumeration reflects the backing holdings.
func (c *CachedStore) Range(f func(sum Sum, size int64) bool) {
	if ranger, ok := c.backing.(Ranger); ok {
		ranger.Range(f)
	}
}

// Shards reports the shard count (for startup logging).
func (c *CachedStore) Shards() int { return len(c.shards) }

// CacheStats reports cache effectiveness.
type CacheStats struct {
	Hits, Misses        int64
	HitBytes, MissBytes int64
	Evictions           int64
	Used, Capacity      int64
	Entries             int
}

// HitRate returns the request hit fraction.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// ByteHitRate returns the byte hit fraction — the origin offload.
func (s CacheStats) ByteHitRate() float64 {
	total := s.HitBytes + s.MissBytes
	if total == 0 {
		return 0
	}
	return float64(s.HitBytes) / float64(total)
}

// CacheStats returns a snapshot aggregated across shards.
func (c *CachedStore) CacheStats() CacheStats {
	st := CacheStats{Capacity: c.capacity}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.HitBytes += s.hitBytes
		st.MissBytes += s.missBytes
		st.Evictions += s.evictions
		st.Used += s.used
		st.Entries += len(s.items)
		s.mu.Unlock()
	}
	return st
}
