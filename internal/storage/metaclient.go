package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/randx"
	"mcloud/internal/tracing"
)

// RemoteMeta implements MetaService against a metadata plane running
// in other processes, so a clustered front-end node without a
// colocated metadata server can still commit uploads and resolve
// retrievals. It speaks the /meta/commit and /meta/lookup internal
// endpoints and decodes the typed /v1 error envelope, so sentinel
// checks (errors.Is(err, ErrNotFound)) behave exactly as with a local
// *Metadata.
//
// It routes through the same metaRouter and retries through the same
// retryExec as the device Client, with a static shard map: every
// request is pinned to the shard the caller names (the pin a client's
// store-check/resolve handshake produced), attempts rotate through the
// shard's endpoints in circuit-breaker health order, a standby bounce,
// fencing rejection or stale epoch demotes the endpoint and rediscovers
// the primary, and a wrong_shard rejection is followed in one bounce.
// DefaultMetaRetry gives it enough persistence to ride through a
// metadata-node kill and an automatic failover.
type RemoteMeta struct {
	http   *http.Client
	retry  RetryPolicy
	router *metaRouter

	rngMu sync.Mutex
	rng   *randx.Source
}

// DefaultMetaRetry shapes RemoteMeta's persistence: enough attempts
// and delay headroom to span a metadata-node restart (a few seconds),
// with short per-attempt deadlines so a dead node is detected fast.
var DefaultMetaRetry = RetryPolicy{
	MaxAttempts:    8,
	BaseDelay:      50 * time.Millisecond,
	MaxDelay:       2 * time.Second,
	Multiplier:     2,
	Jitter:         0.5,
	RequestTimeout: 5 * time.Second,
}

// NewRemoteMeta returns a MetaService talking to the metadata servers
// listed in baseURL — a comma-separated list, primary first, standbys
// after. The whole list is one shard group (the unsharded
// deployment); use NewShardedRemoteMeta for a sharded plane. httpc
// may be nil for a shared default with sane timeouts.
func NewRemoteMeta(baseURL string, httpc *http.Client) *RemoteMeta {
	return newRemoteMeta(splitEndpoints(baseURL), nil, httpc)
}

// NewShardedRemoteMeta returns a MetaService routing across the shard
// groups of the given map (the -metashards wiring). Each shard's
// endpoint list seeds that shard's rotation.
func NewShardedRemoteMeta(smap *cluster.MetaShardMap, httpc *http.Client) *RemoteMeta {
	return newRemoteMeta(smap.Endpoints(0), smap, httpc)
}

func newRemoteMeta(boot []string, smap *cluster.MetaShardMap, httpc *http.Client) *RemoteMeta {
	if httpc == nil {
		httpc = defaultHTTPClient
	}
	return &RemoteMeta{
		http:   httpc,
		retry:  DefaultMetaRetry,
		router: newMetaRouter(boot, smap, nil),
		rng:    randx.Derive(0, "remotemeta"),
	}
}

// splitEndpoints parses a comma-separated endpoint list.
func splitEndpoints(s string) []string {
	var eps []string
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimRight(strings.TrimSpace(e), "/")
		if e != "" {
			eps = append(eps, e)
		}
	}
	return eps
}

// SetRetry overrides the retry policy and jitter seed (tests, tuning).
func (m *RemoteMeta) SetRetry(pol RetryPolicy, seed uint64) {
	m.retry = pol.withDefaults()
	m.rngMu.Lock()
	m.rng = randx.Derive(seed, "remotemeta")
	m.rngMu.Unlock()
}

// Discover probes a shard's endpoints via /v1/meta/wal/status and
// prefers that shard's current primary: the non-standby, non-fenced
// node with the highest (epoch, last_seq). Throttled per shard, so a
// burst of demotions costs one sweep. Returns the preferred endpoint,
// "" when none answered as a primary.
func (m *RemoteMeta) Discover(ctx context.Context, shard int) string {
	return m.router.discover(ctx, m.http, shard)
}

// Summary assembles the metadata-shard half of /v1/cluster/info from
// this router's view: shard count and map version from the configured
// map, each shard's primary from its (throttled) discovery sweep.
func (m *RemoteMeta) Summary(ctx context.Context) *MetaShardSummary {
	smap := m.router.shardMap(ctx)
	sum := &MetaShardSummary{Shards: smap.NumShards()}
	if smap != nil {
		sum.MapVersion = smap.Version
	}
	for i := 0; i < sum.Shards; i++ {
		pref := m.Discover(ctx, i)
		sum.ShardInfo = append(sum.ShardInfo, MetaShardInfo{
			Shard:   i,
			Primary: pref,
			Epoch:   m.router.route(i).primaryEpoch.Load(),
		})
	}
	return sum
}

func (m *RemoteMeta) jitterDraw() float64 {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return m.rng.Float64()
}

// postJSON runs one logical metadata operation against one shard. Each
// attempt is a CompMeta span named op, a child of the caller's trace
// and annotated with the shard and endpoint, whose headers ride the
// request, so the metadata server's handler span joins under the
// caller's trace.
func (m *RemoteMeta) postJSON(ctx context.Context, op string, shard int, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	x := retryExec{
		http:   m.http,
		pol:    m.retry,
		jitter: m.jitterDraw,
		parent: tracing.FromContext(ctx),
		comp:   tracing.CompMeta,
		name:   op,
	}
	return m.router.call(ctx, x, shard, func(ep string) (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, ep+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(APIHeader, APIV1)
		return req, nil
	}, nil, out)
}

// CommitCtx implements MetaService.
func (m *RemoteMeta) CommitCtx(ctx context.Context, shard int, url string, chunkMD5s []Sum) error {
	return m.postJSON(ctx, "meta-commit", shard, "/v1/meta/commit",
		CommitRequest{Shard: shard, URL: url, ChunkMD5s: sumStrings(chunkMD5s)}, nil)
}

// LookupCtx implements MetaService.
func (m *RemoteMeta) LookupCtx(ctx context.Context, shard int, sum Sum) (FileMeta, error) {
	var resp LookupResponse
	if err := m.postJSON(ctx, "meta-lookup", shard, "/v1/meta/lookup",
		LookupRequest{Shard: shard, FileMD5: sum.String()}, &resp); err != nil {
		return FileMeta{}, err
	}
	fileSum, err := ParseSum(resp.FileMD5)
	if err != nil {
		return FileMeta{}, fmt.Errorf("storage: remote meta returned bad file digest: %w", err)
	}
	chunks, err := parseSums(resp.ChunkMD5s)
	if err != nil {
		return FileMeta{}, fmt.Errorf("storage: remote meta returned bad chunk digest: %w", err)
	}
	return FileMeta{
		Name:      resp.Name,
		Size:      resp.Size,
		FileMD5:   fileSum,
		ChunkMD5s: chunks,
		URL:       resp.URL,
	}, nil
}
