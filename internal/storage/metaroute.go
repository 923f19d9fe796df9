package storage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/tracing"
)

// metaRouter is the caller side of metadata-plane routing, shared by
// the device Client and the front-end's RemoteMeta. It holds the shard
// map, the bootstrap endpoint list and fully independent per-shard
// routing state — endpoint rotation, circuit breaker, preferred
// endpoint, highest observed epoch — so a failover in one shard never
// perturbs routing to the others. Every metadata call runs through
// call, which reacts to what each attempt learns:
//
//   - success pins the answering endpoint as the shard's preferred one;
//   - not_primary, fenced, or a response stamped with an epoch older
//     than one already seen demotes the endpoint to the back of the
//     rotation, restarts the rotation, and rediscovers the primary via
//     /v1/meta/wal/status, so after a failover requests go straight to
//     the promoted standby instead of re-bouncing off the deposed one;
//   - wrong_shard adopts the attached authoritative assignment and
//     follows it — a stale map converges in one bounce — and a newer map
//     version schedules a map refetch.
//
// The highest epoch seen per shard is echoed on every request to that
// shard, which fences a deposed primary the moment a post-failover
// caller talks to it.
type metaRouter struct {
	// fetch, when set, loads the shard map from the bootstrap list: on
	// first use, and again after a redirect names a newer map version.
	// Nil keeps the map the router was built with.
	fetch func(ctx context.Context, boot []string) *cluster.MetaShardMap
	boot  []string
	probe time.Duration // bound on each discover probe of /v1/meta/wal/status

	mu      sync.Mutex
	smap    *cluster.MetaShardMap // nil: unsharded, every shard routes through boot
	fetched bool                  // fetch ran, and its ctx did not cut it off, since the last newer-version sighting
	shards  map[int]*shardRoute
}

// shardRoute is the routing state for one metadata shard group.
type shardRoute struct {
	health *cluster.Health

	mu        sync.Mutex
	endpoints []string // rotation order; demotions move entries back
	preferred string   // last endpoint that answered as primary ("" until known)
	lastDisc  time.Time

	epochSeen    atomic.Uint64 // highest epoch observed on any response
	primaryEpoch atomic.Uint64 // epoch of the last discovered primary
}

func newMetaRouter(boot []string, smap *cluster.MetaShardMap, fetch func(context.Context, []string) *cluster.MetaShardMap) *metaRouter {
	if len(boot) == 0 {
		boot = []string{""}
	}
	return &metaRouter{fetch: fetch, boot: boot, probe: time.Second, smap: smap, shards: make(map[int]*shardRoute)}
}

// shardMap returns the shard map, running the fetch first when one is
// due. Nil (unsharded, legacy, or no endpoint answered) routes every
// call through the bootstrap list; a wrong_shard redirect still
// corrects the routing, so the fetch is a fast path, not a correctness
// requirement. The fetch runs under the calling operation's ctx; one
// that ctx cut off is due again for the next caller.
func (r *metaRouter) shardMap(ctx context.Context) *cluster.MetaShardMap {
	r.mu.Lock()
	if r.fetch == nil || r.fetched {
		m := r.smap
		r.mu.Unlock()
		return m
	}
	r.fetched = true
	r.mu.Unlock()

	m := r.fetch(ctx, r.boot)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m == nil && ctx.Err() != nil {
		r.fetched = false
	}
	if m != nil && (r.smap == nil || m.Version >= r.smap.Version) {
		r.smap = m
	}
	return r.smap
}

// shardFor maps a user to the owning shard (0 when unsharded).
func (r *metaRouter) shardFor(ctx context.Context, user uint64) int {
	return r.shardMap(ctx).ShardFor(user)
}

// mapVersion is the version of the map held (0 when none), stamped
// into the shard exchange header so servers can count skewed callers.
func (r *metaRouter) mapVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.smap == nil {
		return 0
	}
	return r.smap.Version
}

// route returns (creating on first use) a shard's routing state, seeded
// from the map's endpoint group or, absent one, the bootstrap list.
func (r *metaRouter) route(shard int) *shardRoute {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rt, ok := r.shards[shard]; ok {
		return rt
	}
	eps := r.smap.Endpoints(shard)
	if len(eps) == 0 {
		eps = r.boot
	}
	rt := &shardRoute{endpoints: append([]string(nil), eps...), health: cluster.NewHealth(0, 0)}
	r.shards[shard] = rt
	return rt
}

// adopt folds a wrong_shard redirect's authoritative assignment in: the
// owner shard's rotation becomes the server-provided group, and a map
// version newer than ours makes the next shardMap refetch.
func (r *metaRouter) adopt(a *ShardAssignment) {
	if a == nil || len(a.Endpoints) == 0 {
		return
	}
	rt := r.route(a.Shard)
	rt.mu.Lock()
	rt.endpoints = append([]string(nil), a.Endpoints...)
	rt.preferred = ""
	rt.lastDisc = time.Time{}
	rt.mu.Unlock()
	r.mu.Lock()
	if r.smap == nil || a.MapVersion > r.smap.Version {
		r.fetched = false
	}
	r.mu.Unlock()
}

// pick returns the endpoint for one rotation step: the preferred
// endpoint first when one is known, then the rest in breaker-health
// order (alive before tripped, rotation order inside each class).
func (rt *shardRoute) pick(step int) string {
	rt.mu.Lock()
	ordered := make([]string, 0, len(rt.endpoints))
	rest := make([]string, 0, len(rt.endpoints))
	for _, e := range rt.endpoints {
		if e == rt.preferred {
			ordered = append(ordered, e)
		} else {
			rest = append(rest, e)
		}
	}
	rt.mu.Unlock()
	ordered = append(ordered, rt.health.Order(rest)...)
	return ordered[step%len(ordered)]
}

// pin makes ep the preferred endpoint: it just answered as primary.
func (rt *shardRoute) pin(ep string) {
	rt.mu.Lock()
	rt.preferred = ep
	rt.mu.Unlock()
}

// demote moves ep to the back of the rotation and strips its preferred
// status: it answered, but it is not (or no longer) the primary.
func (rt *shardRoute) demote(ep string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, e := range rt.endpoints {
		if e == ep {
			rt.endpoints = append(append(rt.endpoints[:i:i], rt.endpoints[i+1:]...), ep)
			break
		}
	}
	if rt.preferred == ep {
		rt.preferred = ""
	}
}

// observeEpoch folds an epoch into the highest seen, reporting whether
// it is older than one already seen (a deposed primary still answering).
func (rt *shardRoute) observeEpoch(e uint64) (stale bool) {
	for {
		seen := rt.epochSeen.Load()
		if e <= seen {
			return e < seen
		}
		if rt.epochSeen.CompareAndSwap(seen, e) {
			return false
		}
	}
}

// observe is observeEpoch for a response's epoch stamp, if it has one.
func (rt *shardRoute) observe(h http.Header) (stale bool) {
	e, err := strconv.ParseUint(h.Get(MetaEpochHeader), 10, 64)
	return err == nil && rt.observeEpoch(e)
}

// discover probes a shard's endpoints via /v1/meta/wal/status and
// prefers the shard's current primary: the non-standby, non-fenced node
// with the highest (epoch, last_seq). Throttled per shard, so a burst
// of demotions costs one sweep, and returns the preferred endpoint
// while throttled. Returns "" when no endpoint answered as a primary.
func (r *metaRouter) discover(ctx context.Context, hc *http.Client, shard int) string {
	rt := r.route(shard)
	rt.mu.Lock()
	if time.Since(rt.lastDisc) < 500*time.Millisecond {
		pref := rt.preferred
		rt.mu.Unlock()
		return pref
	}
	rt.lastDisc = time.Now()
	eps := append([]string(nil), rt.endpoints...)
	rt.mu.Unlock()

	best := ""
	var bestEpoch, bestSeq uint64
	for _, ep := range eps {
		st, err := fetchWALStatus(ctx, hc, ep, r.probe)
		if err != nil {
			continue
		}
		rt.observeEpoch(st.Epoch)
		if st.Standby || st.Fenced {
			continue
		}
		if best == "" || st.Epoch > bestEpoch || (st.Epoch == bestEpoch && st.LastSeq > bestSeq) {
			best, bestEpoch, bestSeq = ep, st.Epoch, st.LastSeq
		}
	}
	if best != "" {
		rt.pin(best)
		rt.primaryEpoch.Store(bestEpoch)
	}
	return best
}

// call runs one metadata operation pinned to shard through x. Each
// attempt goes to the endpoint the shard's route picks, stamped with
// the shard's highest seen epoch and, on /v1 requests, the shard
// exchange header. newReq builds the caller's request for an endpoint
// (URL dialect, identity headers); legacy, when set, reports a response
// that reveals a legacy server, which retries on the rebuilt path. A
// 200 body decodes into out unless out is nil.
func (r *metaRouter) call(ctx context.Context, x retryExec, shard int, newReq func(ep string) (*http.Request, error), legacy func(ep string, resp *http.Response) bool, out interface{}) error {
	var (
		rt   *shardRoute
		ep   string
		step int
	)
	return x.do(ctx,
		func() (*http.Request, error) {
			rt = r.route(shard)
			ep = rt.pick(step)
			step++
			req, err := newReq(ep)
			if err != nil {
				return nil, err
			}
			if e := rt.epochSeen.Load(); e > 0 {
				req.Header.Set(MetaEpochHeader, strconv.FormatUint(e, 10))
			}
			if req.Header.Get(APIHeader) == APIV1 {
				req.Header.Set(MetaShardHeader, FormatMetaShard(shard, r.mapVersion()))
			}
			return req, nil
		},
		func(att *tracing.Span, resp *http.Response, err error) error {
			att.AnnotateInt("shard", int64(shard))
			att.Annotate("endpoint", ep)
			if err != nil {
				// A caller that gave up ended the attempt, not the
				// endpoint: its breaker is every caller's.
				if ctx.Err() == nil {
					rt.health.ReportFailure(ep)
				}
				return err
			}
			if legacy != nil && legacy(ep, resp) {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return errLegacyRetry
			}
			// Any HTTP answer means the node is up, even a 503 standby
			// rejection: that is routing, not node health.
			rt.health.ReportSuccess(ep)
			stale := rt.observe(resp.Header)
			err = metaAnswer(resp, out)
			switch {
			case errors.Is(err, ErrWrongShard):
				var ae *APIError
				if errors.As(err, &ae) && ae.Assignment != nil {
					r.adopt(ae.Assignment)
					att.Annotate("redirect", fmt.Sprintf("shard %d", ae.Assignment.Shard))
					// Later attempts route (and stamp the exchange
					// header) for the owner shard.
					shard, step = ae.Assignment.Shard, 0
				}
			case stale || errors.Is(err, ErrNotPrimary) || errors.Is(err, ErrFenced):
				rt.demote(ep)
				r.discover(ctx, x.http, shard)
				att.Annotate("demoted", ep)
				// The next attempt goes to the rediscovered primary, not
				// to wherever the old step count would land.
				step = 0
			case err == nil:
				rt.pin(ep)
			}
			return err
		})
}

// metaAnswer consumes a metadata response: the typed error of a non-200,
// or the 200 body decoded into out (skipped when out is nil). A body
// cut off mid-stream means the connection died under us; the request
// is safe to retry.
func metaAnswer(resp *http.Response, out interface{}) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &corruptError{err: err}
	}
	return nil
}
