package storage

import (
	"context"
	"sync"
	"time"

	"mcloud/internal/metrics"
)

// RefCounter tracks how many committed files reference each chunk, so
// unreferenced chunks can be garbage collected. The measured service
// supports file deletion (it bypasses the front-ends, §2.1), which
// means a production chunk store needs exactly this: deduplicated
// chunks may be shared by many files and can only be reclaimed when
// the last referencing file goes away.
type RefCounter struct {
	mu   sync.Mutex
	refs map[Sum]int
}

// NewRefCounter returns an empty reference tracker.
func NewRefCounter() *RefCounter {
	return &RefCounter{refs: make(map[Sum]int)}
}

// Acquire increments every chunk's reference count (a file commit).
func (rc *RefCounter) Acquire(sums []Sum) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, s := range sums {
		rc.refs[s]++
	}
}

// Release decrements the chunks' counts (a file deletion) and returns
// the chunks that reached zero — candidates for collection.
func (rc *RefCounter) Release(sums []Sum) []Sum {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var dead []Sum
	for _, s := range sums {
		if rc.refs[s] <= 0 {
			continue // over-release is ignored, never negative
		}
		rc.refs[s]--
		if rc.refs[s] == 0 {
			delete(rc.refs, s)
			dead = append(dead, s)
		}
	}
	return dead
}

// Refs returns the current count for a chunk.
func (rc *RefCounter) Refs(sum Sum) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.refs[sum]
}

// Live returns the number of referenced chunks.
func (rc *RefCounter) Live() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.refs)
}

// Deleter is the optional ChunkStore extension for reclaiming space.
type Deleter interface {
	Delete(sum Sum) error
}

// Compactor is the optional ChunkStore extension for stores whose
// deletes only tombstone (e.g. DiskStore): Compact rewrites storage
// whose live ratio has dropped and returns how many units (segments)
// it reclaimed.
type Compactor interface {
	Compact() (int, error)
}

// Collect removes the given chunks from store if it supports deletion,
// returning how many were reclaimed. Stores without Delete (e.g. the
// cached wrapper) report zero reclaimed without error.
func Collect(store ChunkStore, dead []Sum) (int, error) {
	d, ok := store.(Deleter)
	if !ok {
		return 0, nil
	}
	n := 0
	for _, s := range dead {
		switch err := d.Delete(s); err {
		case nil:
			n++
		case ErrNotFound:
			// Already gone; fine.
		default:
			return n, err
		}
	}
	return n, nil
}

// GCMetrics holds the garbage-collection series: how many delete
// sweeps ran, how long each took, and how many chunks they reclaimed.
type GCMetrics struct {
	Deletes   *metrics.Counter
	Reclaimed *metrics.Counter
	Sweep     *metrics.Histogram
}

// NewGCMetrics registers the GC series in reg.
func NewGCMetrics(reg *metrics.Registry) *GCMetrics {
	return &GCMetrics{
		Deletes:   reg.Counter("mcs_gc_deletes_total", "File delete sweeps processed."),
		Reclaimed: reg.Counter("mcs_gc_chunks_reclaimed_total", "Chunks freed by garbage collection."),
		Sweep:     reg.Histogram("mcs_gc_sweep_seconds", "Duration of one delete sweep (unlink, release, collect)."),
	}
}

// DeleteFile removes a file from a user's namespace in the metadata
// server, releases its chunk references, and collects newly
// unreferenced chunks from the store. It returns the number of chunks
// reclaimed. The file's catalog entry survives while other users still
// link it (content-addressed sharing). When gm is non-nil it records
// the sweep duration and the number of chunks reclaimed.
func DeleteFile(ctx context.Context, gm *GCMetrics, m *Metadata, rc *RefCounter, store ChunkStore, user uint64, url string) (int, error) {
	start := time.Now()
	chunks, lastRef, err := m.UnlinkCtx(ctx, user, url)
	if err != nil {
		return 0, err
	}
	n := 0
	if lastRef {
		dead := rc.Release(chunks)
		n, err = Collect(store, dead)
		if err == nil && n > 0 {
			// Deletes against a log-structured store only tombstone;
			// give its compactor a chance to reclaim segment space.
			// Compact no-ops unless a segment crossed its threshold.
			if c, ok := store.(Compactor); ok {
				_, err = c.Compact()
			}
		}
	}
	if gm != nil {
		gm.Deletes.Inc()
		gm.Reclaimed.Add(int64(n))
		gm.Sweep.ObserveSince(start)
	}
	return n, err
}
