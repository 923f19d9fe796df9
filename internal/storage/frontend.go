package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcloud/internal/trace"
	"mcloud/internal/tracing"
)

// LogSink receives the request logs emitted by a front-end, one per
// file operation and chunk request (Table 1). Implementations must be
// safe for concurrent use.
type LogSink interface {
	Record(trace.Log)
}

// Collector is an in-memory LogSink.
type Collector struct {
	mu   sync.Mutex
	logs []trace.Log
}

// Record implements LogSink.
func (c *Collector) Record(l trace.Log) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logs = append(c.logs, l)
}

// Logs returns a copy of the collected entries.
func (c *Collector) Logs() []trace.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]trace.Log, len(c.logs))
	copy(out, c.logs)
	return out
}

// WriterSink streams logs to a trace.Writer.
type WriterSink struct {
	mu      sync.Mutex
	w       *trace.Writer
	err     error // first write error, latched
	dropped int64 // records recorded after the first error
}

// NewWriterSink wraps w.
func NewWriterSink(w *trace.Writer) *WriterSink { return &WriterSink{w: w} }

// Record implements LogSink. The first write error is latched and
// reported by Flush, together with how many records were recorded
// after it (and therefore possibly lost).
func (s *WriterSink) Record(l trace.Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		s.dropped++
		return
	}
	if err := s.w.Write(l); err != nil {
		s.err = err
	}
}

// Flush flushes the underlying writer. If any Record failed, Flush
// reports that first error instead of silently dropping log records.
func (s *WriterSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return fmt.Errorf("storage: request log write failed (%d later records dropped): %w", s.dropped, s.err)
	}
	return s.w.Flush()
}

// FrontEndConfig configures a front-end server. It replaces the old
// positional NewFrontEnd(store, meta, sink, opts) signature so that
// cluster knobs — and whatever comes after them — extend the API
// without another signature break.
type FrontEndConfig struct {
	// Store serves and persists chunks. In a cluster this is the
	// node's ReplicatedStore; single-node deployments pass the local
	// store directly.
	Store ChunkStore
	// Local, when set, serves cluster-internal replica requests
	// (X-MCS-Replica) directly, bypassing any replication layer in
	// Store so forwarded traffic never fans out again. Nil means:
	// Store's local side if Store is a *ReplicatedStore, else Store.
	Local ChunkStore
	// Meta commits uploads and resolves retrievals. Use *Metadata
	// in-process or RemoteMeta against another node.
	Meta MetaService
	// Sink receives the Table 1 request log (nil discards).
	Sink LogSink
	// UpstreamDelay samples the upstream storage-server processing
	// time Tsrv recorded in each log. Nil means zero.
	UpstreamDelay func() time.Duration
	// SleepUpstream, when true, actually sleeps for the sampled delay
	// (live-service realism); tests leave it false.
	SleepUpstream bool
	// Now supplies timestamps (defaults to time.Now); tests and the
	// workload player override it to generate logs on simulated time.
	Now func() time.Time
	// Metrics, when non-nil, receives per-request counters and latency
	// observations (see NewFrontEndMetrics). One instance may be
	// shared across front-ends for service-level totals.
	Metrics *FrontEndMetrics
	// Tracer, when non-nil, records a span per request (continuing
	// the client's trace when the request carries X-MCS-Trace) and
	// pins the traces behind top-bucket latency observations.
	Tracer *tracing.Tracer
	// DisableBin withholds the mcsbin/1 binary dialect: the /v1/bin/*
	// endpoints are not registered and responses carry no X-MCS-Bin
	// stamp, so negotiated peers stay on JSON/HTTP. Used to run
	// legacy-JSON nodes in mixed-version clusters.
	DisableBin bool
	// DisableLegacy withholds the unversioned path aliases (/op/store,
	// /op/retrieve, /chunk/): a /v1-only node. While the aliases are
	// registered they answer with the deprecation headers (-legacyapi;
	// see LegacySunset).
	DisableLegacy bool
	// MetaSummary, when non-nil, supplies the metadata-shard summary
	// attached to /v1/cluster/info (a sharded RemoteMeta's Summary, or
	// a colocated Metadata's view).
	MetaSummary func(ctx context.Context) *MetaShardSummary
}

// FrontEnd is one storage front-end server: it accepts file operation
// requests and chunk transfers, persists chunks (replicating them
// across the cluster when configured), commits uploads to the
// metadata service, and logs every request.
type FrontEnd struct {
	store ChunkStore
	local ChunkStore // serves replica-internal traffic
	meta  MetaService
	sink  LogSink
	cfg   FrontEndConfig

	mu      sync.Mutex
	pending map[string]*pendingUpload
}

type pendingUpload struct {
	url      string
	shard    int // metadata shard that reserved the URL (from the op request)
	expected []Sum
	got      map[Sum]bool
}

// missingLocked lists the expected chunks that have not arrived, in
// upload order without duplicates (caller holds mu).
func (p *pendingUpload) missingLocked() []Sum {
	var missing []Sum
	seen := make(map[Sum]bool, len(p.expected))
	for _, s := range p.expected {
		if !p.got[s] && !seen[s] {
			seen[s] = true
			missing = append(missing, s)
		}
	}
	return missing
}

// NewFrontEnd returns a front-end built from cfg.
func NewFrontEnd(cfg FrontEndConfig) *FrontEnd {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	local := cfg.Local
	if local == nil {
		if rs, ok := cfg.Store.(*ReplicatedStore); ok {
			local = rs.Local()
		} else {
			local = cfg.Store
		}
	}
	return &FrontEnd{
		store:   cfg.Store,
		local:   local,
		meta:    cfg.Meta,
		sink:    cfg.Sink,
		cfg:     cfg,
		pending: make(map[string]*pendingUpload),
	}
}

// reqIdentity extracts the client identity headers.
func reqIdentity(r *http.Request) (dev trace.DeviceType, devID, userID uint64, rtt time.Duration, proxied bool) {
	dev, _ = trace.ParseDeviceType(r.Header.Get("X-Device-Type"))
	devID, _ = strconv.ParseUint(r.Header.Get("X-Device-ID"), 10, 64)
	userID, _ = strconv.ParseUint(r.Header.Get("X-User-ID"), 10, 64)
	if v := r.Header.Get("X-Sim-RTT"); v != "" {
		if ns, err := strconv.ParseInt(v, 10, 64); err == nil {
			rtt = time.Duration(ns)
		}
	}
	proxied = r.Header.Get("X-Forwarded-For") != ""
	return dev, devID, userID, rtt, proxied
}

// simTime reads the client's virtual timestamp header, used when a
// pre-generated trace is replayed through the live service in
// compressed wall time: the front-end logs the trace's simulated
// clock instead of time.Now, so session analysis of the replayed logs
// matches the source trace. Zero when absent.
func simTime(r *http.Request) time.Time {
	v := r.Header.Get("X-Sim-Time")
	if v == "" {
		return time.Time{}
	}
	ns, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// record emits one log entry and the matching metric observations. A
// replayed request's virtual timestamp (X-Sim-Time) takes precedence
// over the wall clock.
func (f *FrontEnd) record(r *http.Request, typ trace.ReqType, bytes int64, started time.Time, tsrv time.Duration) {
	f.recordAt(r, typ, bytes, started, f.cfg.Now().Sub(started), tsrv)
}

// recordAt is record for a request whose elapsed time the caller
// measured itself (batch members, logged after the batch's fsync).
// Replica hops are not client requests: they are neither logged nor
// observed, so the Table 1 log and the mcs_frontend_* series count
// each client chunk once however many owners store it.
func (f *FrontEnd) recordAt(r *http.Request, typ trace.ReqType, bytes int64, started time.Time, elapsed, tsrv time.Duration) {
	if f.sink == nil && f.cfg.Metrics == nil || isReplicaRequest(r) {
		return
	}
	dev, devID, userID, rtt, proxied := reqIdentity(r)
	if fm := f.cfg.Metrics; fm != nil {
		// elapsed equals the log's TransferTime (Proc - Server), so the
		// scraped histogram matches what mcsanalyze computes from the log.
		fm.observe(typ, dev, bytes, elapsed)
		// Tail-based exemplar capture: an observation landing in the
		// histogram's top buckets pins its trace, so the requests
		// behind the p99 stay inspectable after the ring turns over.
		if fm.slowExemplar(typ, elapsed.Seconds()) {
			tracing.FromContext(r.Context()).Pin()
		}
	}
	if f.sink == nil {
		return
	}
	logTime := started
	if st := simTime(r); !st.IsZero() {
		logTime = st
	}
	f.sink.Record(trace.Log{
		Time:     logTime,
		Device:   dev,
		DeviceID: devID,
		UserID:   userID,
		Type:     typ,
		Bytes:    bytes,
		Proc:     elapsed + tsrv,
		Server:   tsrv,
		RTT:      rtt,
		Proxied:  proxied,
	})
}

// countErr bumps the error counter for a client request's type
// (replica hops are not counted; see recordAt).
func (f *FrontEnd) countErr(r *http.Request, typ trace.ReqType) {
	if fm := f.cfg.Metrics; fm != nil && !isReplicaRequest(r) {
		fm.errors[typ].Inc()
	}
}

// fail counts and writes one error response in the dialect the
// request speaks (typed /v1 envelope or legacy body).
func (f *FrontEnd) fail(w http.ResponseWriter, r *http.Request, code int, err error, typ trace.ReqType) {
	f.countErr(r, typ)
	writeAPIError(w, r, code, err)
}

// upstream samples (and optionally performs) the upstream delay.
func (f *FrontEnd) upstream() time.Duration {
	if f.cfg.UpstreamDelay == nil {
		return 0
	}
	d := f.cfg.UpstreamDelay()
	if f.cfg.SleepUpstream && d > 0 {
		time.Sleep(d)
	}
	return d
}

// Handler returns the front-end HTTP API. The versioned surface:
//
//	POST /v1/op/store        file storage operation request
//	POST /v1/op/retrieve     file retrieval operation request
//	POST /v1/op/stat         batched chunk existence check
//	PUT  /v1/chunk/{md5}     chunk storage request
//	GET  /v1/chunk/{md5}     chunk retrieval request
//	GET  /v1/cluster/info    node's cluster configuration
//	GET  /v1/cluster/chunks  locally-held chunk listing (rebalance)
//
// The legacy unversioned paths (/op/store, /op/retrieve, /chunk/)
// remain as thin aliases onto the same handlers. Every response
// carries X-MCS-API: v1; errors follow the request's dialect.
func (f *FrontEnd) Handler() http.Handler {
	mux := http.NewServeMux()
	if !f.cfg.DisableLegacy {
		mux.HandleFunc("/op/store", deprecateAlias("/op/store", f.handleStoreOp))
		mux.HandleFunc("/op/retrieve", deprecateAlias("/op/retrieve", f.handleRetrieveOp))
		mux.HandleFunc("/chunk/", deprecateAlias("/chunk/", f.handleChunk))
	}
	mux.HandleFunc("/v1/op/store", f.handleStoreOp)
	mux.HandleFunc("/v1/op/retrieve", f.handleRetrieveOp)
	mux.HandleFunc("/v1/op/stat", f.handleStatOp)
	mux.HandleFunc("/v1/chunk/", f.handleChunk)
	mux.HandleFunc("/v1/cluster/info", f.handleClusterInfo)
	mux.HandleFunc("/v1/cluster/chunks", f.handleClusterChunks)
	if !f.cfg.DisableBin {
		mux.HandleFunc("/v1/bin/get", f.handleBinGet)
		mux.HandleFunc("/v1/bin/put", f.handleBinPut)
	}
	// The tracing middleware wraps the whole surface — legacy aliases
	// included, so traces survive dialect fallback — and places the
	// request span in the context for the store layers below.
	return tracing.Middleware(f.cfg.Tracer, tracing.CompFrontEnd, spanName,
		advertiseDialects(!f.cfg.DisableBin, mux))
}

// spanName maps a request onto a low-cardinality span name: the
// digest is stripped from chunk paths and the /v1 prefix is dropped
// so both dialects trace identically. Replica-internal hops are
// marked so fan-out spans are distinguishable from client requests.
func spanName(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/v1")
	if strings.HasPrefix(p, "/chunk/") {
		p = "/chunk"
	}
	if isReplicaRequest(r) {
		p += " (replica)"
	}
	return r.Method + " " + p
}

func (f *FrontEnd) handleStoreOp(w http.ResponseWriter, r *http.Request) {
	started := f.cfg.Now()
	var req FileOpRequest
	if !decodeJSON(w, r, &req) {
		f.countErr(r, trace.FileStore)
		return
	}
	url := r.URL.Query().Get("url")
	if url == "" {
		f.fail(w, r, http.StatusBadRequest, fmt.Errorf("storage: missing url parameter"), trace.FileStore)
		return
	}
	expected := make([]Sum, 0, len(req.ChunkMD5s))
	for _, s := range req.ChunkMD5s {
		sum, err := ParseSum(s)
		if err != nil {
			f.fail(w, r, http.StatusBadRequest, err, trace.FileStore)
			return
		}
		expected = append(expected, sum)
	}
	if len(expected) == 0 {
		// Zero-byte files carry no chunks; commit immediately.
		if err := f.meta.CommitCtx(r.Context(), req.Shard, url, nil); err != nil {
			f.fail(w, r, metaErrStatus(err, http.StatusNotFound), err, trace.FileStore)
			return
		}
		tsrv := f.upstream()
		f.record(r, trace.FileStore, 0, started, tsrv)
		writeJSON(w, FileOpResponse{OK: true, Resumable: true})
		return
	}

	// Probe which chunks the store already holds — from an interrupted
	// earlier attempt or shared with another file — in one batched
	// call, outside the pending-table lock: on a replicated store each
	// Has is network I/O, and the batch collapses the per-chunk round
	// trips to one per replica owner. Staleness is harmless: a chunk
	// that lands between probe and registration is simply re-sent, and
	// chunk PUTs are idempotent.
	present := multiHas(f.store, expected)

	// Re-issuing the operation for an in-flight URL resumes it: the
	// upload's progress survives, and the response tells the client
	// which chunks are still needed.
	f.mu.Lock()
	p, ok := f.pending[url]
	if !ok {
		p = &pendingUpload{url: url, shard: req.Shard, expected: expected, got: make(map[Sum]bool)}
		for i, s := range expected {
			if present[i] {
				p.got[s] = true
			}
		}
		f.pending[url] = p
		if fm := f.cfg.Metrics; fm != nil {
			fm.pending.Inc()
		}
	} else {
		p.expected = expected
	}
	missing := p.missingLocked()
	var snapshot []Sum
	if len(missing) == 0 {
		snapshot = append([]Sum(nil), p.expected...)
	}
	f.mu.Unlock()

	if len(missing) == 0 {
		if err := f.commitUpload(r.Context(), req.Shard, url, snapshot); err != nil {
			f.fail(w, r, metaErrStatus(err, http.StatusInternalServerError), err, trace.FileStore)
			return
		}
	}

	tsrv := f.upstream()
	f.record(r, trace.FileStore, 0, started, tsrv)
	writeJSON(w, FileOpResponse{OK: true, Resumable: true, MissingMD5s: sumStrings(missing)})
}

// handleStatOp answers the batched existence check: one round trip
// for a whole file's worth of chunk digests. v1-only (no legacy
// alias); stat requests are control-plane traffic and are not logged
// in the Table 1 schema.
func (f *FrontEnd) handleStatOp(w http.ResponseWriter, r *http.Request) {
	var req StatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sums, err := parseSums(req.ChunkMD5s)
	if err != nil {
		writeAPIError(w, r, http.StatusBadRequest, err)
		return
	}
	// Replica-internal stats answer for this node's local holdings
	// only (the rebalancer and peer owners ask "do YOU have it", not
	// "can the cluster find it").
	store := f.store
	if isReplicaRequest(r) {
		store = f.local
	}
	present := multiHas(store, sums)
	resp := StatResponse{}
	for i, ok := range present {
		if ok {
			resp.Present++
		} else {
			resp.MissingMD5s = append(resp.MissingMD5s, req.ChunkMD5s[i])
		}
	}
	writeJSON(w, resp)
}

// commitUpload finalizes a completed upload at the metadata server and
// only then drops the pending record, so a failed commit remains
// retryable by the client (via op re-issue or chunk re-PUT). The
// request context rides along so the metadata server's WAL spans join
// the caller's trace.
func (f *FrontEnd) commitUpload(ctx context.Context, shard int, url string, expected []Sum) error {
	if err := f.meta.CommitCtx(ctx, shard, url, expected); err != nil {
		return err
	}
	f.mu.Lock()
	_, ok := f.pending[url]
	delete(f.pending, url)
	f.mu.Unlock()
	if ok {
		if fm := f.cfg.Metrics; fm != nil {
			fm.pending.Dec()
		}
	}
	return nil
}

func (f *FrontEnd) handleRetrieveOp(w http.ResponseWriter, r *http.Request) {
	started := f.cfg.Now()
	var req FileOpRequest
	if !decodeJSON(w, r, &req) {
		f.countErr(r, trace.FileRetrieve)
		return
	}
	sum, err := ParseSum(req.FileMD5)
	if err != nil {
		f.fail(w, r, http.StatusBadRequest, err, trace.FileRetrieve)
		return
	}
	meta, err := f.meta.LookupCtx(r.Context(), req.Shard, sum)
	if err != nil {
		f.fail(w, r, http.StatusNotFound, err, trace.FileRetrieve)
		return
	}
	tsrv := f.upstream()
	f.record(r, trace.FileRetrieve, 0, started, tsrv)
	writeJSON(w, FileOpResponse{OK: true, ChunkMD5s: sumStrings(meta.ChunkMD5s), Size: meta.Size})
}

func (f *FrontEnd) handleChunk(w http.ResponseWriter, r *http.Request) {
	started := f.cfg.Now()
	// Attribute pre-dispatch errors to the direction the method implies.
	typ := trace.ChunkRetrieve
	if r.Method == http.MethodPut {
		typ = trace.ChunkStore
	}
	sum, err := ParseSum(trimChunkPath(r.URL.Path))
	if err != nil {
		f.fail(w, r, http.StatusBadRequest, err, typ)
		return
	}
	// Replica-internal traffic (PUT fan-out, GET failover, repair and
	// rebalance streams) addresses this node's local store directly
	// and is never re-forwarded, bounding the cluster's forwarding
	// depth to one hop. It also bypasses upload tracking — the node
	// that accepted the client's upload owns that bookkeeping.
	if isReplicaRequest(r) {
		f.handleReplicaChunk(w, r, sum)
		return
	}
	switch r.Method {
	case http.MethodPut:
		f.putChunk(w, r, sum, started)
	case http.MethodGet:
		f.getChunk(w, r, sum, started)
	default:
		f.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("storage: method %s not allowed", r.Method), typ)
	}
}

// handleReplicaChunk serves cluster-internal chunk traffic from the
// local store: PUT stores, GET reads (404 when absent — the caller
// fails over to the next replica), DELETE drops a misplaced copy
// (used by mcsrebalance -prune).
func (f *FrontEnd) handleReplicaChunk(w http.ResponseWriter, r *http.Request, sum Sum) {
	switch r.Method {
	case http.MethodPut:
		scratch := getChunkBuf()
		defer putChunkBuf(scratch)
		fr, err := ingestBody(r.Body, *scratch, sum)
		if err != nil {
			writeAPIError(w, r, ingressErrStatus(err), err)
			return
		}
		if err := f.local.PutCtx(withVerified(r.Context(), fr), sum, fr.payload); err != nil {
			writeAPIError(w, r, storeErrStatus(err), err)
			return
		}
		writeJSON(w, FileOpResponse{OK: true})
	case http.MethodGet:
		rd, err := f.local.GetReaderCtx(r.Context(), sum)
		if err != nil {
			writeAPIError(w, r, http.StatusNotFound, err)
			return
		}
		defer rd.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(rd.Size(), 10))
		f.streamChunk(w, r, rd, sum, trace.ChunkRetrieve)
	case http.MethodDelete:
		d, ok := f.local.(Deleter)
		if !ok {
			writeAPIError(w, r, http.StatusNotImplemented,
				fmt.Errorf("storage: local store cannot delete"))
			return
		}
		if err := d.Delete(sum); err != nil {
			writeAPIError(w, r, http.StatusNotFound, err)
			return
		}
		writeJSON(w, FileOpResponse{OK: true})
	default:
		writeAPIError(w, r, http.StatusMethodNotAllowed,
			fmt.Errorf("storage: method %s not allowed", r.Method))
	}
}

// handleClusterInfo reports the node's placement configuration, plus a
// metadata-plane summary when this node knows how to build one.
func (f *FrontEnd) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	var info ClusterInfo
	if rs, ok := f.store.(*ReplicatedStore); ok {
		info = rs.Info()
	} else {
		info = ClusterInfo{Replicas: 1, Quorum: 1}
	}
	if f.cfg.MetaSummary != nil {
		info.Meta = f.cfg.MetaSummary(r.Context())
	}
	writeJSON(w, info)
}

// handleClusterChunks streams the digests held by this node's local
// store, for the rebalancer. Requires a store that supports Range.
func (f *FrontEnd) handleClusterChunks(w http.ResponseWriter, r *http.Request) {
	ranger, ok := f.local.(Ranger)
	if !ok {
		writeAPIError(w, r, http.StatusNotImplemented,
			fmt.Errorf("storage: local store cannot enumerate chunks"))
		return
	}
	var chunks []ChunkInfo
	ranger.Range(func(sum Sum, size int64) bool {
		chunks = append(chunks, ChunkInfo{MD5: sum.String(), Size: size})
		return true
	})
	writeJSON(w, chunks)
}

func (f *FrontEnd) putChunk(w http.ResponseWriter, r *http.Request, sum Sum, started time.Time) {
	// The body lands in a pooled chunk-sized buffer and is verified as
	// it arrives; the stores below take the frame as verified and keep
	// (or write out) what they need of it.
	scratch := getChunkBuf()
	defer putChunkBuf(scratch)
	fr, err := ingestBody(r.Body, *scratch, sum)
	if err != nil {
		f.fail(w, r, ingressErrStatus(err), err, trace.ChunkStore)
		return
	}
	if err := f.store.PutCtx(withVerified(r.Context(), fr), sum, fr.payload); err != nil {
		f.fail(w, r, storeErrStatus(err), err, trace.ChunkStore)
		return
	}
	tsrv := f.upstream()

	// Track upload completion for the owning file, if any.
	url := r.URL.Query().Get("url")
	if url != "" {
		f.mu.Lock()
		var snapshot []Sum
		var shard int
		if p, ok := f.pending[url]; ok {
			p.got[sum] = true
			if f.completeLocked(p) {
				snapshot = append([]Sum(nil), p.expected...)
				shard = p.shard
			}
		}
		f.mu.Unlock()
		if snapshot != nil {
			if err := f.commitUpload(r.Context(), shard, url, snapshot); err != nil {
				f.fail(w, r, metaErrStatus(err, http.StatusInternalServerError), err, trace.ChunkStore)
				return
			}
		}
	}

	f.record(r, trace.ChunkStore, int64(len(fr.payload)), started, tsrv)
	writeJSON(w, FileOpResponse{OK: true})
}

// completeLocked reports whether every expected chunk has arrived.
func (f *FrontEnd) completeLocked(p *pendingUpload) bool {
	for _, s := range p.expected {
		if !p.got[s] {
			return false
		}
	}
	return true
}

func (f *FrontEnd) getChunk(w http.ResponseWriter, r *http.Request, sum Sum, started time.Time) {
	rd, err := f.store.GetReaderCtx(r.Context(), sum)
	if err != nil {
		code := http.StatusNotFound
		if IsUnavailable(err) {
			code = http.StatusServiceUnavailable
		}
		f.fail(w, r, code, err, trace.ChunkRetrieve)
		return
	}
	defer rd.Close()
	tsrv := f.upstream()
	f.record(r, trace.ChunkRetrieve, rd.Size(), started, tsrv)
	// Content-Length is known from the record header, so the response
	// skips chunked framing and the client can fail fast on truncation.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(rd.Size(), 10))
	f.streamChunk(w, r, rd, sum, trace.ChunkRetrieve)
}

// streamChunk copies a chunk payload into the response, verifying the
// record CRC during the copy (disk-backed readers; no second pass).
// A partial or failed write is counted and annotated on the request
// span instead of being silently dropped — the status line is already
// out, so that is all a server can do for a dead client. Corruption
// detected mid-stream aborts the connection: the client sees a short
// body, fails its digest check, and re-fetches from another replica.
func (f *FrontEnd) streamChunk(w http.ResponseWriter, r *http.Request, rd *ChunkReader, sum Sum, typ trace.ReqType) {
	_, verified, werr := rd.StreamTo(w)
	if werr != nil {
		f.countErr(r, typ)
		tracing.FromContext(r.Context()).Annotate("write_err", werr.Error())
		return
	}
	if !verified {
		f.countErr(r, typ)
		tracing.FromContext(r.Context()).Annotate("corrupt", sum.String())
		panic(http.ErrAbortHandler)
	}
}

// ingressErrStatus maps an ingress check's rejection (body, frame or
// batch decode) onto its HTTP status; classifyAPIError then renders
// the matching typed envelope code. Everything an ingress rejects is
// the sender's fault: 4xx, not retryable.
func ingressErrStatus(err error) int {
	if errors.Is(err, ErrTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// storeErrStatus maps a failed put of verified bytes onto its HTTP
// status. The handler owns verification, so whatever the store returns
// — a full disk, a write error, a store closed mid-drain, a missed
// quorum — is the server's trouble: 5xx, and the client retries or
// fails over.
func storeErrStatus(err error) int {
	if IsUnavailable(err) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// upstreamBatch samples one upstream delay per batched chunk but
// sleeps only the maximum once: the batch members share the upstream
// round trip, which is where the binary dialect's latency win on
// upstream-bound paths comes from. Each chunk's log still records its
// own sampled tsrv. A replica hop is not a client request and has no
// upstream: it samples and sleeps nothing.
func (f *FrontEnd) upstreamBatch(r *http.Request, n int) []time.Duration {
	out := make([]time.Duration, n)
	if f.cfg.UpstreamDelay == nil || isReplicaRequest(r) {
		return out
	}
	var max time.Duration
	for i := range out {
		out[i] = f.cfg.UpstreamDelay()
		if out[i] > max {
			max = out[i]
		}
	}
	if f.cfg.SleepUpstream && max > 0 {
		time.Sleep(max)
	}
	return out
}

// handleBinGet serves a batched binary chunk fetch: the request body
// lists digests, the response is one mcsbin/1 frame per digest in
// order (not-found frames for absent chunks). All readers are opened
// before the first response byte — pins held across the response, so
// every error can still use the typed envelope and the Content-Length
// is exact. Disk-resident chunks stream their raw record region
// (framing and checksum included) with no re-encode.
func (f *FrontEnd) handleBinGet(w http.ResponseWriter, r *http.Request) {
	started := f.cfg.Now()
	if r.Method != http.MethodPost {
		f.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("storage: method %s not allowed", r.Method), trace.ChunkRetrieve)
		return
	}
	sums, err := decodeBinGetRequest(r.Body, binMaxBatch)
	if err != nil {
		f.fail(w, r, ingressErrStatus(err), err, trace.ChunkRetrieve)
		return
	}
	store := f.store
	if isReplicaRequest(r) {
		store = f.local
	}
	readers := make([]*ChunkReader, len(sums))
	defer func() {
		for _, rd := range readers {
			if rd != nil {
				rd.Close()
			}
		}
	}()
	var total int64
	for i, sum := range sums {
		rd, err := store.GetReaderCtx(r.Context(), sum)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				total += recHeaderSize
				continue
			}
			code := http.StatusInternalServerError
			if IsUnavailable(err) {
				code = http.StatusServiceUnavailable
			}
			f.fail(w, r, code, err, trace.ChunkRetrieve)
			return
		}
		readers[i] = rd
		total += recHeaderSize + rd.Size()
	}
	tsrvs := f.upstreamBatch(r, len(sums))
	w.Header().Set("Content-Type", binContentType)
	w.Header().Set("Content-Length", strconv.FormatInt(total, 10))
	prev := started
	for i, sum := range sums {
		rd := readers[i]
		if rd == nil {
			if _, werr := w.Write(binNotFoundFrame(sum)); werr != nil {
				f.countErr(r, trace.ChunkRetrieve)
				tracing.FromContext(r.Context()).Annotate("write_err", werr.Error())
				return
			}
			continue
		}
		var werr error
		if fr, _, ok := rd.Frame(); ok {
			buf := getCopyBuf()
			_, werr = io.CopyBuffer(w, fr, *buf)
			putCopyBuf(buf)
		} else {
			var hdr [recHeaderSize]byte
			data, _ := rd.Bytes()
			encodeHeader(hdr[:], sum, uint32(rd.Size()), data)
			if _, werr = w.Write(hdr[:]); werr == nil {
				_, _, werr = rd.StreamTo(w)
			}
		}
		size := rd.Size()
		rd.Close()
		readers[i] = nil
		if werr != nil {
			f.countErr(r, trace.ChunkRetrieve)
			tracing.FromContext(r.Context()).Annotate("write_err", werr.Error())
			return
		}
		// Per-chunk Table 1 logs with additive elapsed shares, so the
		// batch accounts for the same wall time as n single requests.
		f.record(r, trace.ChunkRetrieve, size, prev, tsrvs[i])
		prev = f.cfg.Now()
	}
}

// handleBinPut accepts a batched binary chunk upload: count frames,
// each verified (CRC and MD5 during the streaming read) and handed to
// the store, as verified, before the next is read. The batch owes one
// wait, after the last frame and before anything is acknowledged: one
// group-commit fsync per local store or, on a replicated store, each
// frame's write quorum — every remote owner gets the batch's frames
// over one stream as they land here and acks it after its own group
// fsync, and the local fsync counts as one more ack. No response
// byte, no pending-upload progress and no commit precedes the wait.
// Any bad frame fails the whole request closed with the typed
// envelope — nothing has been written to the response yet — and the
// client falls back to per-chunk JSON PUTs, which are idempotent over
// whatever this batch already stored. The ?url= query ties the chunks to their pending upload exactly like
// PUT /v1/chunk/{md5}.
func (f *FrontEnd) handleBinPut(w http.ResponseWriter, r *http.Request) {
	started := f.cfg.Now()
	if r.Method != http.MethodPost {
		f.fail(w, r, http.StatusMethodNotAllowed, fmt.Errorf("storage: method %s not allowed", r.Method), trace.ChunkStore)
		return
	}
	count, err := decodeBinCount(r.Body, binMaxBatch)
	if err != nil {
		f.fail(w, r, ingressErrStatus(err), err, trace.ChunkStore)
		return
	}
	store := f.store
	replica := isReplicaRequest(r)
	if replica {
		store = f.local
	}
	ctx, group := withSyncGroup(r.Context(), count)
	// A batch that fails before its wait — a bad frame k — cuts the
	// replica streams short: frame k and those after it reach no owner.
	defer group.release()
	scratch := getChunkBuf()
	defer putChunkBuf(scratch)
	sums := make([]Sum, count)
	sizes := make([]int64, count)
	ends := make([]time.Time, count)
	tsrvs := f.upstreamBatch(r, count)
	for i := 0; i < count; i++ {
		bf, err := readBinFrame(r.Body, *scratch, true)
		if err != nil {
			f.fail(w, r, ingressErrStatus(err), err, trace.ChunkStore)
			return
		}
		fr, err := bf.verified()
		if err != nil {
			f.fail(w, r, ingressErrStatus(err), err, trace.ChunkStore)
			return
		}
		if err := store.PutCtx(withVerified(ctx, fr), bf.sum, fr.payload); err != nil {
			f.fail(w, r, storeErrStatus(err), err, trace.ChunkStore)
			return
		}
		sums[i], sizes[i], ends[i] = bf.sum, int64(len(fr.payload)), f.cfg.Now()
	}
	if err := group.wait(ctx); err != nil {
		f.fail(w, r, storeErrStatus(err), err, trace.ChunkStore)
		return
	}
	// Per-chunk Table 1 logs with additive elapsed shares; the shared
	// fsync wait lands on the last chunk, so the batch accounts for the
	// same wall time as n single requests.
	ends[count-1] = f.cfg.Now()
	prev := started
	for i := range sums {
		f.recordAt(r, trace.ChunkStore, sizes[i], prev, ends[i].Sub(prev), tsrvs[i])
		prev = ends[i]
	}

	if url := r.URL.Query().Get("url"); url != "" && !replica {
		f.mu.Lock()
		var snapshot []Sum
		var shard int
		if p, ok := f.pending[url]; ok {
			for _, sum := range sums {
				p.got[sum] = true
			}
			if f.completeLocked(p) {
				snapshot = append([]Sum(nil), p.expected...)
				shard = p.shard
			}
		}
		f.mu.Unlock()
		if snapshot != nil {
			if err := f.commitUpload(r.Context(), shard, url, snapshot); err != nil {
				f.fail(w, r, metaErrStatus(err, http.StatusInternalServerError), err, trace.ChunkStore)
				return
			}
		}
	}
	writeJSON(w, FileOpResponse{OK: true})
}

// IsUnavailable reports whether err is the cluster's "not enough live
// replicas" condition, which maps to 503 rather than 404/400.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrUnavailable)
}
