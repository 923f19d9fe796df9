package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/md5lanes"
	"mcloud/internal/randx"
	"mcloud/internal/trace"
	"mcloud/internal/tracing"
)

// Client is the device-side implementation of the store/retrieve
// protocol: it talks to the metadata server first, then to the
// assigned front-end, chunk by chunk, exactly as §2.1 describes.
//
// The client is built for the network the paper measured — cellular
// links that stall, reset and corrupt transfers. Every request runs
// under a deadline and retries transient failures with exponential
// backoff (see RetryPolicy); chunk uploads are idempotent re-PUTs;
// interrupted uploads resume from the front-end's missing-chunk set
// instead of restarting the file; downloads check every chunk as it
// arrives, re-fetch corrupted ones, and verify the assembled file
// against its MD5. A file operation ends when its context does.
//
// Build one with NewClient; its configuration is fixed from then on.
type Client struct {
	cfg ClientConfig

	rngMu sync.Mutex
	rng   *randx.Source

	// legacyHosts remembers front-ends that answered a /v1 request
	// with a bare 404 (no X-MCS-API stamp) — the legacy-server
	// signature. Negotiation then costs one round trip per host, once.
	legacyMu    sync.Mutex
	legacyHosts map[string]bool

	// binHosts remembers, per host, the last-seen binary stamps:
	// X-MCS-Bin, the capability signal for the batched binary chunk
	// dialect, and X-MCS-Bin-Ops, whether its batches carry the file
	// retrieval operation. Refreshed on every handled response, so a
	// host restarted without the dialect downgrades the client back to
	// JSON automatically.
	binMu    sync.Mutex
	binHosts map[string]binCaps

	// rings caches each front-end's cluster ring (nil: single-node or
	// legacy), learned once per host from /v1/cluster/info.
	ringMu sync.Mutex
	rings  map[string]*cluster.Ring

	// metaRt routes metadata calls (see metaRouter). It is built on
	// first use from MetaURL — a comma-separated bootstrap list, primary
	// first, standbys after — and fetches the shard map from that list
	// (GET /v1/meta/shards). Unsharded and legacy servers leave the map
	// nil and everything routes through the bootstrap list.
	metaOnce sync.Once
	metaRt   *metaRouter
}

// ClientConfig is a client's configuration. The zero value of every
// field but MetaURL is a working default.
type ClientConfig struct {
	// MetaURL is the metadata plane's bootstrap list, comma-separated,
	// primary first, standbys after.
	MetaURL  string
	UserID   uint64
	DeviceID uint64
	Device   trace.DeviceType
	// SimRTT, when nonzero, is reported to the front-end as the
	// connection's average RTT (the simulated path latency).
	SimRTT time.Duration
	// Proxied marks requests as relayed via an HTTP proxy.
	Proxied bool
	// HTTP is the underlying client. Nil means a shared internal
	// client with connection reuse and a cap timeout (never the
	// timeoutless http.DefaultClient).
	HTTP *http.Client
	// Retry tunes resilience; nil means DefaultRetry.
	Retry *RetryPolicy
	// RetrySeed seeds the deterministic backoff jitter stream.
	RetrySeed uint64
	// MaxResumes bounds how many times one upload re-queries the
	// missing-chunk set after mid-file failures; 0 means 3.
	MaxResumes int
	// Parallel is the chunk-transfer window: how many chunk PUTs/GETs
	// one file operation keeps in flight. 0 means DefaultParallel; 1
	// keeps one request in flight at a time (a retrieve still batches
	// its chunks into it).
	Parallel int
	// Metrics, when non-nil, receives retry/resume/refetch counters
	// (see NewClientMetrics). May be shared across clients.
	Metrics *ClientMetrics
	// SimClock, when set, stamps every request with a virtual
	// timestamp (X-Sim-Time) that the front-end logs instead of the
	// wall clock — used to replay pre-generated traces through the
	// live service in compressed time.
	SimClock func() time.Time
	// Tracer, when non-nil, roots a distributed trace per file
	// operation (subject to the tracer's sampling rate) whose context
	// carries no span, and propagates it on every request via
	// X-MCS-Trace/X-MCS-Span.
	Tracer *tracing.Tracer
	// LegacyAPI pins the client to the unversioned wire paths,
	// skipping negotiation (used to exercise the compatibility path in
	// tests).
	LegacyAPI bool
}

// NewClient returns a client built from cfg.
func NewClient(cfg ClientConfig) *Client { return &Client{cfg: cfg} }

// markLegacy records that base speaks only the unversioned API.
func (c *Client) markLegacy(base string) {
	c.legacyMu.Lock()
	if c.legacyHosts == nil {
		c.legacyHosts = make(map[string]bool)
	}
	c.legacyHosts[base] = true
	c.legacyMu.Unlock()
}

// useV1 reports whether requests to base should take the /v1 paths.
func (c *Client) useV1(base string) bool {
	if c.cfg.LegacyAPI {
		return false
	}
	c.legacyMu.Lock()
	legacy := c.legacyHosts[base]
	c.legacyMu.Unlock()
	return !legacy
}

// binCaps is what a host's last response advertised of the binary
// dialect.
type binCaps struct {
	bin          bool // X-MCS-Bin: mcsbin/1
	fileRetrieve bool // X-MCS-Bin-Ops: file-retrieve
}

// noteBin records the dialect capability a response from base
// advertised (or stopped advertising).
func (c *Client) noteBin(base string, h http.Header) {
	if c.cfg.LegacyAPI {
		return
	}
	v := binCaps{bin: binAdvertised(h), fileRetrieve: h.Get(BinOpsHeader) == BinOpFileRetrieve}
	c.binMu.Lock()
	if c.binHosts == nil {
		c.binHosts = make(map[string]binCaps)
	}
	c.binHosts[base] = v
	c.binMu.Unlock()
}

// binCapsOf returns what base may be sent over the binary dialect:
// nothing unless the host speaks /v1 and its last response carried
// the stamps.
func (c *Client) binCapsOf(base string) binCaps {
	if !c.useV1(base) {
		return binCaps{}
	}
	c.binMu.Lock()
	defer c.binMu.Unlock()
	return c.binHosts[base]
}

// binHost reports whether chunk traffic to base may take the binary
// dialect.
func (c *Client) binHost(base string) bool { return c.binCapsOf(base).bin }

// apiPath joins base and path, inserting the /v1 prefix when the host
// negotiates the versioned API.
func (c *Client) apiPath(base, path string) string {
	if c.useV1(base) {
		return base + "/v1" + path
	}
	return base + path
}

// errLegacyRetry signals that the attempt hit a legacy server on a
// /v1 path; the host has been marked and the request should be
// rebuilt on the unversioned path immediately (no backoff, no
// attempt consumed — nothing failed, the dialect was wrong).
var errLegacyRetry = errors.New("storage: legacy server detected, retrying unversioned path")

// checkLegacy classifies a 404: a v1 server stamps every response
// with X-MCS-API, so a 404 without it on a /v1 request means the
// server predates the versioned API.
func (c *Client) checkLegacy(base string, resp *http.Response) bool {
	if c.cfg.LegacyAPI || !c.useV1(base) {
		return false
	}
	if resp.StatusCode == http.StatusNotFound && resp.Header.Get(APIHeader) == "" {
		c.markLegacy(base)
		return true
	}
	return false
}

// clusterRing returns the ring behind a front-end, fetched once from
// /v1/cluster/info. Nil means route everything through the assigned
// front-end: single-node deployments, legacy servers, or an info
// fetch that failed (forwarding keeps working regardless — the ring
// is a latency optimization, not a correctness requirement). The
// fetch runs under the operation's ctx; one cut off by ctx is not
// remembered, so the next operation fetches again.
func (c *Client) clusterRing(ctx context.Context, frontend string) *cluster.Ring {
	c.ringMu.Lock()
	ring, ok := c.rings[frontend]
	c.ringMu.Unlock()
	if ok {
		return ring
	}
	ring = c.fetchRing(ctx, frontend)
	if ring == nil && ctx.Err() != nil {
		return nil
	}
	c.ringMu.Lock()
	if c.rings == nil {
		c.rings = make(map[string]*cluster.Ring)
	}
	c.rings[frontend] = ring
	c.ringMu.Unlock()
	return ring
}

func (c *Client) fetchRing(ctx context.Context, frontend string) *cluster.Ring {
	var info ClusterInfo
	if !c.useV1(frontend) || c.getV1(ctx, frontend, "/v1/cluster/info", &info) != nil || len(info.Peers) < 2 {
		return nil
	}
	ring, err := cluster.NewRing(info.Peers, 0)
	if err != nil {
		return nil
	}
	return ring
}

// getV1 is one GET of a /v1 JSON resource under the per-attempt
// deadline and ctx, without retries: the ring and shard-map fetches
// are fast paths whose absence costs a forwarding hop or a redirect.
func (c *Client) getV1(ctx context.Context, base, path string, out interface{}) error {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set(APIHeader, APIV1)
	ctx, cancel := context.WithTimeout(ctx, c.policy().RequestTimeout)
	defer cancel()
	resp, err := c.httpClient().Do(req.WithContext(ctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if c.checkLegacy(base, resp) || resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("storage: GET %s%s: status %d", base, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// chunkTarget picks the host to address for one chunk: the chunk's
// primary owner when the ring is known, else the assigned front-end.
func (c *Client) chunkTarget(ctx context.Context, frontend string, sum Sum) string {
	ring := c.clusterRing(ctx, frontend)
	if ring == nil {
		return frontend
	}
	return ring.Primary(cluster.Key(sum))
}

func (c *Client) httpClient() *http.Client {
	if c.cfg.HTTP != nil {
		return c.cfg.HTTP
	}
	return defaultHTTPClient
}

// setIdentity attaches the identity headers the front-end logs.
func (c *Client) setIdentity(req *http.Request) {
	req.Header.Set("X-Device-Type", c.cfg.Device.String())
	req.Header.Set("X-Device-ID", strconv.FormatUint(c.cfg.DeviceID, 10))
	req.Header.Set("X-User-ID", strconv.FormatUint(c.cfg.UserID, 10))
	if c.cfg.SimRTT > 0 {
		req.Header.Set("X-Sim-RTT", strconv.FormatInt(int64(c.cfg.SimRTT), 10))
	}
	if c.cfg.Proxied {
		req.Header.Set("X-Forwarded-For", "10.0.0.1")
	}
	if c.cfg.SimClock != nil {
		req.Header.Set("X-Sim-Time", strconv.FormatInt(c.cfg.SimClock().UnixNano(), 10))
	}
}

// postJSON performs a JSON request/response round trip with retries.
// The URL is rebuilt per attempt from base and path so the versioned
// prefix tracks the host's negotiated dialect: a bare 404 (no
// X-MCS-API stamp) on a /v1 path marks the host legacy and the next
// attempt takes the unversioned path immediately.
func (c *Client) postJSON(base, path string, in, out interface{}, budget *retryBudget) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.doRetry(budget, budget.span,
		func() (*http.Request, error) { return c.jsonRequest(base, path, body) },
		func(resp *http.Response) error {
			defer resp.Body.Close()
			if c.checkLegacy(base, resp) {
				io.Copy(io.Discard, resp.Body)
				return errLegacyRetry
			}
			c.noteBin(base, resp.Header)
			if resp.StatusCode != http.StatusOK {
				return decodeError(resp)
			}
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				// A JSON body cut off mid-stream means the connection
				// died under us; the request is safe to retry.
				return &corruptError{err: err}
			}
			return nil
		})
}

// jsonRequest builds one attempt of a JSON POST to base: the path in
// the host's negotiated dialect, identity and version headers.
func (c *Client) jsonRequest(base, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, c.apiPath(base, path), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.setIdentity(req)
	c.setAPIVersion(req, base)
	return req, nil
}

// meta returns the client's metadata router.
func (c *Client) meta() *metaRouter {
	c.metaOnce.Do(func() {
		c.metaRt = newMetaRouter(splitEndpoints(c.cfg.MetaURL), nil, c.fetchShardMap)
	})
	return c.metaRt
}

// fetchShardMap asks the bootstrap endpoints, in order, for the shard
// map. Returns nil when none answered (or the server predates sharding
// / speaks only the legacy API).
func (c *Client) fetchShardMap(ctx context.Context, boot []string) *cluster.MetaShardMap {
	for _, ep := range boot {
		var m cluster.MetaShardMap
		if c.useV1(ep) && c.getV1(ctx, ep, "/v1/meta/shards", &m) == nil && len(m.Shards) > 0 {
			return &m
		}
	}
	return nil
}

// postMetaJSON is postJSON against the metadata plane, pinned to one
// shard and routed by the client's metadata router.
func (c *Client) postMetaJSON(shard int, path string, in, out interface{}, budget *retryBudget) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.meta().call(budget.ctx, c.exec(budget, budget.span), shard,
		func(ep string) (*http.Request, error) { return c.jsonRequest(ep, path, body) },
		c.checkLegacy, out)
}

// setAPIVersion advertises v1 on requests to hosts not known legacy.
func (c *Client) setAPIVersion(req *http.Request, base string) {
	if c.useV1(base) {
		req.Header.Set(APIHeader, APIV1)
	}
}

// decodeError turns a non-2xx response into an error. A v1 server's
// typed envelope decodes into an *APIError (which unwraps to the
// package sentinels); anything else — including a legacy server's
// {"error": ...} body — becomes a *serverError classified by status.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if resp.Header.Get(APIHeader) == APIV1 {
		var ae APIError
		if err := json.Unmarshal(body, &ae); err == nil && ae.Code != "" {
			ae.Status = resp.StatusCode
			return &ae
		}
	}
	se := &serverError{Status: resp.StatusCode}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err == nil {
		se.Msg = e.Error
	}
	return se
}

// StoreResult reports the outcome of a file upload.
type StoreResult struct {
	URL          string // the file's service URL
	Deduplicated bool   // content was already stored; nothing uploaded
	ChunksSent   int
	BytesSent    int64
	Resumes      int // times the upload re-queried the missing-chunk set
}

// StoreFile is StoreFileCtx without a deadline.
func (c *Client) StoreFile(name string, data []byte) (StoreResult, error) {
	return c.StoreFileCtx(context.Background(), name, data)
}

// StoreFileCtx uploads one file: dedup check at the metadata server,
// then a file storage operation request and chunk storage requests at
// the front-end. A mid-file failure does not restart the upload — the
// client re-issues the file operation request, learns which chunks the
// front-end is still missing, and sends only those. The upload ends
// with ctx, and its span is a child of the one ctx carries.
func (c *Client) StoreFileCtx(ctx context.Context, name string, data []byte) (res StoreResult, err error) {
	if err := ctx.Err(); err != nil {
		return StoreResult{}, err
	}
	budget := c.newBudget(ctx)
	budget.span = c.opSpan(ctx, tracing.SpanStoreFile)
	budget.span.AnnotateInt("bytes", int64(len(data)))
	defer func() { budget.span.EndErr(err) }()
	// The chunk digests are needed only if the dedup check says
	// "upload", but with a transfer window above one a second core is
	// the client's to use until then: one goroutine hashes the chunks
	// while this one hashes the file, keeping its chaining value at
	// every chunk boundary for the retrieves, and asks. A window of one
	// hashes on this goroutine alone, after the check: a hasher beside
	// it only competes with the other devices and the servers for the
	// cores (measured: +20% store p50 on a loaded 2-core box); its
	// chunks still go out in one mcsbin/1 batch.
	up := newUpload(data)
	var fileSum Sum
	var chain []Sum
	if len(up.sums) == 1 {
		// One chunk: its digest is the file's.
		up.hashAll()
		fileSum = up.sums[0]
	} else {
		if c.window(len(up.sums)) > 1 {
			up.start()
		}
		// On any early return — error, or a Duplicate verdict — the
		// pass stops at the next lane group and lets go of the caller's
		// bytes before StoreFileCtx returns.
		defer up.cancel()
		fileSum, chain = sumChained(data)
	}
	shard := c.meta().shardFor(budget.ctx, c.cfg.UserID)
	var check StoreCheckResponse
	err = c.postMetaJSON(shard, "/meta/store-check", StoreCheckRequest{
		UserID:    c.cfg.UserID,
		Name:      name,
		Size:      int64(len(data)),
		FileMD5:   fileSum.String(),
		ChainMD5s: sumStrings(chain),
	}, &check, budget)
	if err != nil {
		return StoreResult{}, err
	}
	if check.Duplicate {
		budget.span.Annotate("dedup", "true")
		return StoreResult{URL: check.URL, Deduplicated: true}, nil
	}
	if check.FrontEnd == "" {
		return StoreResult{}, fmt.Errorf("storage: metadata server assigned no front-end")
	}

	up.hashAll()
	chunkStrs := make([]string, len(up.sums))
	for i, s := range up.sums {
		chunkStrs[i] = s.String()
		if _, ok := up.byDigest[chunkStrs[i]]; !ok {
			up.byDigest[chunkStrs[i]] = i
		}
	}
	opReq := FileOpRequest{
		UserID:    c.cfg.UserID,
		DeviceID:  c.cfg.DeviceID,
		Device:    c.cfg.Device.String(),
		Name:      name,
		Size:      int64(len(data)),
		FileMD5:   fileSum.String(),
		ChunkMD5s: chunkStrs,
		// Pin the front-end's commit to the shard that reserved the
		// URL (authoritative: the server that answered store-check).
		Shard: check.Shard,
	}

	maxResumes := c.cfg.MaxResumes
	if maxResumes <= 0 {
		maxResumes = 3
	}
	res = StoreResult{URL: check.URL}
	budget.span.Annotate("url", check.URL)
	var lastErr error
	for pass := 0; pass <= maxResumes; pass++ {
		if pass > 0 {
			res.Resumes++
			c.cfg.Metrics.resume()
		}
		var opResp FileOpResponse
		err = c.postJSON(check.FrontEnd, "/op/store?url="+check.URL, opReq, &opResp, budget)
		if err != nil {
			return res, err
		}
		// A resumable front-end reports exactly which chunks it still
		// needs (possibly none: the upload is already complete). Older
		// servers expect everything.
		todo := chunkStrs
		if opResp.Resumable {
			todo = opResp.MissingMD5s
		}
		if len(todo) == 0 {
			return res, nil
		}

		lastErr = c.sendChunks(check.FrontEnd, check.URL, todo, up, budget, &res)
		if lastErr == nil {
			return res, nil
		}
		if !retryable(lastErr) || !opResp.Resumable || ctx.Err() != nil {
			break
		}
	}
	return res, lastErr
}

// opSpan opens a file operation's span: a child of the span ctx
// carries, else a root of the client's tracer.
func (c *Client) opSpan(ctx context.Context, name string) *tracing.Span {
	if parent := tracing.FromContext(ctx); parent != nil {
		return parent.StartChild(tracing.CompClient, name)
	}
	return c.cfg.Tracer.StartRoot(tracing.CompClient, name)
}

// upload is one file being stored: its bytes and, per chunk, the
// mcsbin/1 frame header (digest, length, CRC) — everything either
// dialect needs to send a chunk. The full-size chunks are independent
// messages of one length, so their digests come from md5lanes passes
// of up to 16 chunks each.
type upload struct {
	data     []byte
	sums     []Sum
	hdrs     []byte         // len(sums) frame headers, back to back
	byDigest map[string]int // hex digest -> first chunk index carrying it

	stop atomic.Bool   // set by cancel; checked between lane groups
	done chan struct{} // closed when the pass returns; nil until one runs
}

func newUpload(data []byte) *upload {
	n := (len(data) + ChunkSize - 1) / ChunkSize
	return &upload{
		data:     data,
		sums:     make([]Sum, n),
		hdrs:     make([]byte, n*recHeaderSize),
		byDigest: make(map[string]int, n),
	}
}

// chunk returns chunk i's bytes.
func (u *upload) chunk(i int) []byte {
	lo := i * ChunkSize
	hi := lo + ChunkSize
	if hi > len(u.data) {
		hi = len(u.data)
	}
	return u.data[lo:hi]
}

// hdr returns chunk i's frame header.
func (u *upload) hdr(i int) []byte { return u.hdrs[i*recHeaderSize : (i+1)*recHeaderSize] }

// hash fills in every chunk's digest and frame header, unless the
// upload is cancelled first, a group of md5lanes.MaxLanes chunks at a
// time (sumChunks). The group's CRCs, which cover the digests, run
// right behind its MD5s, while its chunks are still cache-warm.
func (u *upload) hash() {
	var group [md5lanes.MaxLanes][]byte
	for lo := 0; lo < len(u.sums); lo += len(group) {
		if u.stop.Load() {
			return
		}
		hi := min(lo+len(group), len(u.sums))
		for i := lo; i < hi; i++ {
			group[i-lo] = u.chunk(i)
		}
		sumChunks(u.sums[lo:hi], group[:hi-lo])
		for i := lo; i < hi; i++ {
			encodeHeader(u.hdr(i), u.sums[i], uint32(len(group[i-lo])), group[i-lo])
		}
	}
}

// start runs the hashing pass on a goroutine of its own.
func (u *upload) start() {
	u.done = make(chan struct{})
	go func() {
		defer close(u.done)
		u.hash()
	}()
}

// hashAll returns once every chunk is hashed: it runs the pass on
// this goroutine unless one has run or been started, then waits for it.
func (u *upload) hashAll() {
	if u.done == nil {
		u.done = make(chan struct{})
		u.hash()
		close(u.done)
	}
	<-u.done
}

// cancel abandons the hashing at the next lane group and waits for a
// running pass to let go of the caller's bytes.
func (u *upload) cancel() {
	u.stop.Store(true)
	if u.done != nil {
		<-u.done
	}
}

// DefaultParallel is the chunk-transfer window used when
// Client.Parallel is zero.
const DefaultParallel = 4

// window resolves the effective in-flight window for an operation of
// the given chunk count.
func (c *Client) window(chunks int) int {
	w := c.cfg.Parallel
	if w == 0 {
		w = DefaultParallel
	}
	if w < 1 {
		w = 1
	}
	if w > chunks {
		w = chunks
	}
	return w
}

// sendChunks uploads the chunks the front-end reported missing,
// keeping up to the configured window in flight. Success counters
// fold into res; the returned error is the one from the lowest chunk
// position, so reporting does not depend on goroutine interleaving.
func (c *Client) sendChunks(frontend, url string, todo []string, up *upload, budget *retryBudget, res *StoreResult) error {
	w := c.window(len(todo))
	if c.binHost(frontend) {
		if err := c.sendChunksBin(frontend, url, todo, up, budget, res, w); err == nil {
			return nil
		}
		// Any batched-upload failure degrades to the per-chunk JSON
		// path below, which re-sends everything with its own retry
		// machinery — chunk PUTs are idempotent, so frames the batch
		// already landed deduplicate server-side.
	}
	var sent, sentBytes int64
	send := func(j int) error {
		i, ok := up.byDigest[todo[j]]
		if !ok {
			return fmt.Errorf("storage: front-end wants unknown chunk %s", todo[j])
		}
		p := up.chunk(i)
		if err := c.putChunk(frontend, url, up.sums[i], p, budget); err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		atomic.AddInt64(&sent, 1)
		atomic.AddInt64(&sentBytes, int64(len(p)))
		return nil
	}

	err := runWindow(w, len(todo), send)
	res.ChunksSent += int(sent)
	res.BytesSent += sentBytes
	return err
}

// batchSize resolves how many chunks ride one binary batch: small
// enough that a window's worth of batches still fills the transfer
// window (keeping the parallelism the JSON path had), capped at the
// protocol's binMaxBatch.
func batchSize(n, w int) int {
	// Split the chunks so every window slot carries one batch: the
	// server folds each batch's upstream round trips into one shared
	// wait, while keeping w requests in flight overlaps the per-request
	// decode/hash work with the other batches' upstream waits. Fewer,
	// fuller batches measure slower on-core — a single giant request
	// serializes its transfer and checksum work behind the shared wait.
	per := (n + w - 1) / w
	if per > binMaxBatch {
		per = binMaxBatch
	}
	if per < 1 {
		per = 1
	}
	return per
}

// sendChunksBin uploads the missing chunks over the binary dialect,
// batching them into /v1/bin/put requests that the window runs in
// parallel. Counters fold into res only when every batch lands, so a
// fallback to the JSON path never double-counts.
func (c *Client) sendChunksBin(frontend, url string, todo []string, up *upload, budget *retryBudget, res *StoreResult, w int) error {
	idx := make([]int, len(todo))
	for j, d := range todo {
		i, ok := up.byDigest[d]
		if !ok {
			return fmt.Errorf("storage: front-end wants unknown chunk %s", d)
		}
		idx[j] = i
	}
	per := batchSize(len(idx), w)
	var batches [][]int
	for lo := 0; lo < len(idx); lo += per {
		hi := lo + per
		if hi > len(idx) {
			hi = len(idx)
		}
		batches = append(batches, idx[lo:hi])
	}
	if w > len(batches) {
		w = len(batches)
	}
	var sent, sentBytes int64
	err := runWindow(w, len(batches), func(b int) error {
		n, err := c.putChunkBatch(frontend, url, batches[b], up, budget)
		if err != nil {
			return err
		}
		atomic.AddInt64(&sent, int64(len(batches[b])))
		atomic.AddInt64(&sentBytes, n)
		return nil
	})
	if err != nil {
		return err
	}
	res.ChunksSent += int(sent)
	res.BytesSent += sentBytes
	return nil
}

// runWindow runs fn(0..n-1) on w goroutines, the caller's among them,
// keeping at most w calls in flight. On failure the remaining indices
// are abandoned (calls already in flight complete, and their side
// effects count) and the error from the lowest failing index is
// returned. The caller works rather than waits: a window of one costs
// no goroutine hand-off, which a one-chunk retrieve would pay on every
// small file.
func runWindow(w, n int, fn func(int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		minJ   int
		minErr error
		wg     sync.WaitGroup
	)
	next.Store(-1)
	worker := func() {
		for !failed.Load() {
			j := int(next.Add(1))
			if j >= n {
				return
			}
			if err := fn(j); err != nil {
				failed.Store(true)
				mu.Lock()
				if minErr == nil || j < minJ {
					minJ, minErr = j, err
				}
				mu.Unlock()
				return
			}
		}
	}
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	if w > 0 {
		worker()
	}
	wg.Wait()
	return minErr
}

// putChunk uploads one chunk. The PUT is idempotent — the chunk store
// deduplicates by content — so retries simply re-send the same bytes.
// Chunk PUTs always address the assigned front-end: it owns the
// upload's completion bookkeeping and fans the bytes out to the
// replica owners itself.
func (c *Client) putChunk(frontend, url string, sum Sum, data []byte, budget *retryBudget) error {
	sp := budget.span.StartChild(tracing.CompClient, tracing.SpanChunkPut)
	sp.Annotate("chunk", sum.String())
	sp.AnnotateInt("bytes", int64(len(data)))
	err := c.doRetry(budget, sp,
		func() (*http.Request, error) {
			target := c.apiPath(frontend, fmt.Sprintf("/chunk/%s?url=%s", sum, url))
			req, err := http.NewRequest(http.MethodPut, target, bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			c.setIdentity(req)
			c.setAPIVersion(req, frontend)
			return req, nil
		},
		func(resp *http.Response) error {
			defer resp.Body.Close()
			if c.checkLegacy(frontend, resp) {
				io.Copy(io.Discard, resp.Body)
				return errLegacyRetry
			}
			c.noteBin(frontend, resp.Header)
			if resp.StatusCode != http.StatusOK {
				return decodeError(resp)
			}
			io.Copy(io.Discard, resp.Body)
			return nil
		})
	sp.EndErr(err)
	return err
}

// putChunkBatch uploads a set of chunks in one binary /v1/bin/put
// request. The span keeps the chunk-put shape (attempt children, a
// joined server-side handler span), so the trace pipeline diagnoses
// the batch exactly like a single bigger chunk transfer. Retries
// re-send the whole batch — chunk PUTs deduplicate by content, so
// re-sending frames the server already committed is harmless.
func (c *Client) putChunkBatch(frontend, url string, ids []int, up *upload, budget *retryBudget) (int64, error) {
	// Zero-copy body: the frame headers were encoded when the chunks
	// were hashed, and every attempt streams them interleaved with the
	// caller's payload slices — the file bytes are neither staged into a
	// batch buffer nor scanned again. net.Buffers hands the transport
	// each slice whole; io.MultiReader would allocate a 32 KB copy
	// buffer per request, which a one-chunk store pays on every file.
	var total int64
	for _, i := range ids {
		total += int64(len(up.chunk(i)))
	}
	count := appendBinCount(nil, len(ids))
	wire := int64(len(count)) + int64(len(ids))*recHeaderSize + total
	body := func() io.Reader {
		parts := make(net.Buffers, 0, 1+2*len(ids))
		parts = append(parts, count)
		for _, i := range ids {
			parts = append(parts, up.hdr(i), up.chunk(i))
		}
		return &parts
	}
	sp := budget.span.StartChild(tracing.CompClient, tracing.SpanChunkPut)
	sp.Annotate("chunk", up.sums[ids[0]].String())
	sp.Annotate("dialect", BinV1)
	sp.AnnotateInt("count", int64(len(ids)))
	sp.AnnotateInt("bytes", total)
	err := c.doRetry(budget, sp,
		func() (*http.Request, error) {
			req, err := http.NewRequest(http.MethodPost, frontend+"/v1/bin/put?url="+url, body())
			if err != nil {
				return nil, err
			}
			req.ContentLength = wire
			req.Header.Set("Content-Type", binContentType)
			c.setIdentity(req)
			c.setAPIVersion(req, frontend)
			return req, nil
		},
		func(resp *http.Response) error {
			defer resp.Body.Close()
			c.noteBin(frontend, resp.Header)
			if resp.StatusCode != http.StatusOK {
				return decodeError(resp)
			}
			io.Copy(io.Discard, resp.Body)
			return nil
		})
	sp.EndErr(err)
	return total, err
}
