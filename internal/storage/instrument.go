package storage

import (
	"time"

	"mcloud/internal/metrics"
	"mcloud/internal/trace"
)

// Exported metric names (see README "Observability" for the full
// catalog). Everything lives under the mcs_ prefix; label sets are
// fixed at registration so the serving hot path is a pre-resolved
// atomic add — no map lookups, no allocation.

// devIndex maps a device type onto the fixed histogram slot; unknown
// devices share the PC slot.
func devIndex(d trace.DeviceType) int {
	switch d {
	case trace.Android:
		return 0
	case trace.IOS:
		return 1
	default:
		return 2
	}
}

var devSlots = [...]trace.DeviceType{trace.Android, trace.IOS, trace.PC}

// FrontEndMetrics holds the pre-resolved front-end series. One
// instance may be shared by every front-end of a process so the
// exposition shows service-level totals.
type FrontEndMetrics struct {
	requests [4]*metrics.Counter // by trace.ReqType
	errors   [4]*metrics.Counter
	bytesIn  *metrics.Counter
	bytesOut *metrics.Counter
	pending  *metrics.Gauge
	// chunk transfer latency (the log's ttran = Tchunk - Tsrv) by
	// direction and device, plus a device="all" aggregate per
	// direction for dashboards.
	chunkLat    [2][3]*metrics.Histogram // [store|retrieve][device]
	chunkLatAll [2]*metrics.Histogram
}

// NewFrontEndMetrics registers the front-end series in reg and
// returns the handle to hand to FrontEndOptions.Metrics.
func NewFrontEndMetrics(reg *metrics.Registry) *FrontEndMetrics {
	fm := &FrontEndMetrics{}
	reqTypes := [...]trace.ReqType{trace.FileStore, trace.FileRetrieve, trace.ChunkStore, trace.ChunkRetrieve}
	for _, t := range reqTypes {
		fm.requests[t] = reg.Counter("mcs_frontend_requests_total",
			"Requests served by the storage front-ends.", "op", t.String())
		fm.errors[t] = reg.Counter("mcs_frontend_errors_total",
			"Requests the front-ends rejected with an error status.", "op", t.String())
	}
	fm.bytesIn = reg.Counter("mcs_frontend_bytes_total",
		"Chunk payload bytes moved through the front-ends.", "dir", "in")
	fm.bytesOut = reg.Counter("mcs_frontend_bytes_total",
		"Chunk payload bytes moved through the front-ends.", "dir", "out")
	fm.pending = reg.Gauge("mcs_frontend_pending_uploads",
		"File uploads opened but not yet fully committed.")
	dirs := [...]string{"store", "retrieve"}
	for di, dir := range dirs {
		for _, dev := range devSlots {
			fm.chunkLat[di][devIndex(dev)] = reg.Histogram("mcs_frontend_chunk_seconds",
				"Chunk transfer time at the front-end (Tchunk - Tsrv), by direction and device.",
				"dir", dir, "device", dev.String())
		}
		fm.chunkLatAll[di] = reg.Histogram("mcs_frontend_chunk_seconds",
			"Chunk transfer time at the front-end (Tchunk - Tsrv), by direction and device.",
			"dir", dir, "device", "all")
	}
	return fm
}

// observe records one successfully served request. elapsed is the
// front-end processing time excluding the simulated upstream delay —
// exactly the ttran that mcsanalyze later recovers from the request
// log, so scraped quantiles and log-replay quantiles agree.
func (fm *FrontEndMetrics) observe(typ trace.ReqType, dev trace.DeviceType, bytes int64, elapsed time.Duration) {
	fm.requests[typ].Inc()
	sec := elapsed.Seconds()
	switch typ {
	case trace.ChunkStore:
		fm.bytesIn.Add(bytes)
		fm.chunkLat[0][devIndex(dev)].Observe(sec)
		fm.chunkLatAll[0].Observe(sec)
	case trace.ChunkRetrieve:
		fm.bytesOut.Add(bytes)
		fm.chunkLat[1][devIndex(dev)].Observe(sec)
		fm.chunkLatAll[1].Observe(sec)
	}
}

// slowExemplarMinCount gates exemplar pinning until the direction's
// histogram has seen enough traffic that "top bucket" means tail, not
// warm-up noise (the first observation is always its own maximum).
const slowExemplarMinCount = 64

// slowExemplar reports whether a chunk observation belongs to the top
// buckets of its direction's latency distribution — the tail-based
// sampling trigger that pins the observation's trace (see
// FrontEnd.record). Non-chunk request types never qualify.
func (fm *FrontEndMetrics) slowExemplar(typ trace.ReqType, sec float64) bool {
	var h *metrics.Histogram
	switch typ {
	case trace.ChunkStore:
		h = fm.chunkLatAll[0]
	case trace.ChunkRetrieve:
		h = fm.chunkLatAll[1]
	default:
		return false
	}
	return h.Count() >= slowExemplarMinCount && h.TopBucket(sec, 2)
}

// InstrumentStore exposes any chunk store's occupancy and dedup
// counters as the mcs_store_* series. Values are sampled from Stats()
// at scrape time, so the store's hot path is untouched. Register the
// top-level store only (the one the front-ends serve from): the cache
// and the disk engine register their own series (mcs_cache_*,
// mcs_disk_*) with their Instrument methods.
func InstrumentStore(reg *metrics.Registry, s ChunkStore) {
	reg.GaugeFunc("mcs_store_chunks", "Unique chunks resident in the store.",
		func() float64 { return float64(s.Stats().Chunks) })
	reg.GaugeFunc("mcs_store_bytes", "Unique bytes resident in the store.",
		func() float64 { return float64(s.Stats().Bytes) })
	reg.CounterFunc("mcs_store_puts_total", "Chunk Put operations offered to the store.",
		func() float64 { return float64(s.Stats().Puts) })
	reg.CounterFunc("mcs_store_dedup_hits_total", "Puts that found their content already stored.",
		func() float64 { return float64(s.Stats().DedupHits) })
	reg.CounterFunc("mcs_store_bytes_offered_total", "Total bytes offered across all Puts.",
		func() float64 { return float64(s.Stats().BytesStored) })
}

// Instrument exposes the in-memory chunk store's occupancy and dedup
// counters.
func (m *MemStore) Instrument(reg *metrics.Registry) { InstrumentStore(reg, m) }

// Instrument exposes the durable segment store's on-disk accounting
// as the mcs_disk_* series (alongside whatever mcs_store_* series the
// top-level store registers).
func (ds *DiskStore) Instrument(reg *metrics.Registry) {
	reg.GaugeFunc("mcs_disk_segments", "Segment files on disk.",
		func() float64 { return float64(ds.DiskStats().Segments) })
	reg.GaugeFunc("mcs_disk_live_bytes", "Record bytes still addressed by the index.",
		func() float64 { return float64(ds.DiskStats().LiveBytes) })
	reg.GaugeFunc("mcs_disk_dead_bytes", "Record bytes awaiting compaction (tombstoned or superseded).",
		func() float64 { return float64(ds.DiskStats().DeadBytes) })
	reg.CounterFunc("mcs_disk_fsyncs_total", "fsync syscalls issued (group-committed across writers).",
		func() float64 { return float64(ds.DiskStats().Fsyncs) })
	reg.CounterFunc("mcs_disk_compactions_total", "Segments rewritten and reclaimed by the compactor.",
		func() float64 { return float64(ds.DiskStats().Compactions) })
	reg.CounterFunc("mcs_disk_stream_reads_total", "Chunk reads served zero-copy from a pinned segment region.",
		func() float64 { return float64(ds.DiskStats().StreamReads) })
	reg.GaugeFunc("mcs_disk_recovery_seconds", "Index rebuild time at the last open.",
		func() float64 { return ds.DiskStats().Recovery.Seconds() })
	reg.GaugeFunc("mcs_disk_truncated_bytes", "Torn-tail bytes discarded at the last open.",
		func() float64 { return float64(ds.DiskStats().Truncated) })
}

// Instrument exposes the read cache's effectiveness and occupancy.
func (c *CachedStore) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("mcs_cache_hits_total", "Chunk reads served from the LRU cache.",
		func() float64 { return float64(c.CacheStats().Hits) })
	reg.CounterFunc("mcs_cache_misses_total", "Chunk reads that fell through to the backing store.",
		func() float64 { return float64(c.CacheStats().Misses) })
	reg.CounterFunc("mcs_cache_evictions_total", "Entries evicted to make room.",
		func() float64 { return float64(c.CacheStats().Evictions) })
	reg.CounterFunc("mcs_cache_hit_bytes_total", "Bytes served from the cache.",
		func() float64 { return float64(c.CacheStats().HitBytes) })
	reg.CounterFunc("mcs_cache_miss_bytes_total", "Bytes fetched from the backing store.",
		func() float64 { return float64(c.CacheStats().MissBytes) })
	reg.GaugeFunc("mcs_cache_used_bytes", "Bytes currently resident in the cache.",
		func() float64 { return float64(c.CacheStats().Used) })
	reg.GaugeFunc("mcs_cache_capacity_bytes", "Configured cache capacity.",
		func() float64 { return float64(c.CacheStats().Capacity) })
	reg.GaugeFunc("mcs_cache_entries", "Entries currently resident in the cache.",
		func() float64 { return float64(c.CacheStats().Entries) })
}
