package storage

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcloud/internal/cluster"
)

// routeEnv is one TestMetaRouting row's metadata plane as the caller
// under test sees it: the endpoints it is configured with (or the shard
// map it routes by), the primary that owns the row's writes, and the
// metadata writes (store-checks and commits) each endpoint received —
// counted at the caller's transport, so a dead endpoint's refused
// connections count too.
type routeEnv struct {
	eps  []string
	at   map[string]string     // endpoint name -> URL
	smap *cluster.MetaShardMap // set: the caller routes by this map, not eps

	primary *Metadata
	shard   int
	user    uint64
	data    []byte // committed on primary for another user: the caller's stores dedup
	url     string

	mu     sync.Mutex
	writes map[string]int // endpoint URL -> writes sent
}

// isWrite reports whether r is a metadata write: a store-check or a
// commit (lookups and discovery probes are not counted).
func isWrite(r *http.Request) bool {
	return r.Method == http.MethodPost &&
		(strings.HasSuffix(r.URL.Path, "/meta/store-check") || strings.HasSuffix(r.URL.Path, "/meta/commit"))
}

func (env *routeEnv) RoundTrip(req *http.Request) (*http.Response, error) {
	if isWrite(req) {
		env.mu.Lock()
		env.writes[req.URL.Scheme+"://"+req.URL.Host]++
		env.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// own makes p the owner of the row's writes on shard (m nil: unsharded).
func (env *routeEnv) own(t *testing.T, p *Metadata, shard int, m *cluster.MetaShardMap) {
	seed := shardUser(t, m, shard, nil)
	env.user = shardUser(t, m, shard, map[uint64]bool{seed: true})
	env.primary, env.shard = p, shard
	env.data = []byte("metadata routing payload")
	env.url = commitFor(t, p, shard, seed, env.data)
}

// list configures the caller's endpoints from name, URL pairs, in order.
func (env *routeEnv) list(pairs ...string) {
	for i := 0; i < len(pairs); i += 2 {
		env.at[pairs[i]] = pairs[i+1]
		env.eps = append(env.eps, pairs[i+1])
	}
}

// unshardedPrimary starts the owner of an unsharded row and returns its
// handler, for rows that serve it through a wrapper.
func (env *routeEnv) unshardedPrimary(t *testing.T) (*Metadata, http.Handler) {
	p := NewMetadata("http://fe.invalid")
	env.own(t, p, 0, nil)
	return p, p.Handler()
}

func serve(t *testing.T, h http.Handler) string {
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// deadURL is an endpoint that refuses connections.
func deadURL() string {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	return srv.URL
}

// standbyOf starts a standby of primary: it bounces writes not_primary
// and reports standby in its WAL status.
func standbyOf(t *testing.T, primary string) string {
	s := NewMetadata("http://fe.invalid")
	s.SetStandby(primary)
	return serve(t, s.Handler())
}

// intercept serves h, except that the writes hook claims (by 1-based
// count) are answered by hook itself.
func intercept(h http.Handler, hook func(n int64, w http.ResponseWriter, r *http.Request) bool) http.Handler {
	var writes atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isWrite(r) && hook(writes.Add(1), w, r) {
			return
		}
		h.ServeHTTP(w, r)
	})
}

// epochWriter stamps every response with a fixed epoch over the
// handler's own: a node answering as if still in an older term.
type epochWriter struct {
	http.ResponseWriter
	epoch string
}

func (w epochWriter) WriteHeader(code int) {
	w.Header().Set(MetaEpochHeader, w.epoch)
	w.ResponseWriter.WriteHeader(code)
}

func (w epochWriter) Write(b []byte) (int, error) {
	w.Header().Set(MetaEpochHeader, w.epoch)
	return w.ResponseWriter.Write(b)
}

// routingCallers are the two users of the metadata router. open builds
// the caller on env and returns one metadata write per op call — a
// Client store that the owner answers with a dedup store-check, or a
// RemoteMeta commit of a URL reserved on the owner, looked up through
// the same RemoteMeta afterwards — and the caller's router.
var routingCallers = []struct {
	name string
	open func(t *testing.T, env *routeEnv, pol RetryPolicy) (op func(i int) error, r *metaRouter)
}{
	{"Client", func(t *testing.T, env *routeEnv, pol RetryPolicy) (func(int) error, *metaRouter) {
		c := NewClient(ClientConfig{MetaURL: strings.Join(env.eps, ","), UserID: env.user, Retry: &pol, HTTP: &http.Client{Transport: env}})
		if env.smap != nil {
			r := c.meta()
			r.smap, r.fetched = env.smap, true
		}
		return func(i int) error {
			res, err := c.StoreFile(fmt.Sprintf("op%d.bin", i), env.data)
			if err == nil && (!res.Deduplicated || res.URL != env.url) {
				return fmt.Errorf("store was not answered by the owner's dedup: %+v", res)
			}
			return err
		}, c.meta()
	}},
	{"RemoteMeta", func(t *testing.T, env *routeEnv, pol RetryPolicy) (func(int) error, *metaRouter) {
		hc := &http.Client{Transport: env}
		rm := NewRemoteMeta(strings.Join(env.eps, ","), hc)
		if env.smap != nil {
			rm = NewShardedRemoteMeta(env.smap, hc)
		}
		rm.SetRetry(pol, 1)
		return func(i int) error {
			data := []byte(fmt.Sprintf("routing op %d", i))
			chk, err := env.primary.StoreCheckCtx(bg, StoreCheckRequest{UserID: env.user, Name: fmt.Sprintf("op%d.bin", i), Size: int64(len(data)), FileMD5: SumBytes(data).String()})
			if err != nil {
				return err
			}
			if err := rm.CommitCtx(bg, env.shard, chk.URL, SplitSums(data)); err != nil {
				return err
			}
			if f, err := env.primary.LookupCtx(bg, env.shard, SumBytes(data)); err != nil || f.URL != chk.URL {
				return fmt.Errorf("commit did not land on the owner: %+v %v", f, err)
			}
			if f, err := rm.LookupCtx(bg, env.shard, SumBytes(data)); err != nil || f.URL != chk.URL {
				return fmt.Errorf("lookup after commit: %+v %v", f, err)
			}
			return nil
		}, rm.router
	}},
}

// TestMetaRouting runs every routing behavior of the metadata router
// against both of its callers, the device Client and the front-end's
// RemoteMeta: each row starts a plane, runs ops metadata writes in
// sequence, and checks how many writes each endpoint received.
func TestMetaRouting(t *testing.T) {
	rows := []struct {
		name  string
		ops   int
		pol   func(*RetryPolicy)
		plane func(t *testing.T, env *routeEnv)
		// writes each named endpoint must have received after all ops.
		writes map[string]int
		// wantErr: every op must fail; otherwise every op must succeed.
		wantErr bool
		// took bounds the wall time of all ops (zero max: unbounded).
		took [2]time.Duration
		// mapVersion, when set, is the map version a caller that fetches
		// its map must hold after the ops.
		mapVersion uint64
	}{
		{
			// A dead endpoint costs one refused connection, then the live
			// one is pinned for every later op.
			name: "dead endpoint first",
			ops:  3,
			plane: func(t *testing.T, env *routeEnv) {
				_, h := env.unshardedPrimary(t)
				env.list("dead", deadURL(), "primary", serve(t, h))
			},
			writes: map[string]int{"dead": 1, "primary": 3},
		},
		{
			// One standby bounce demotes the standby: later ops start at
			// the primary and never touch the standby again.
			name: "standby first",
			ops:  4,
			plane: func(t *testing.T, env *routeEnv) {
				_, h := env.unshardedPrimary(t)
				pu := serve(t, h)
				env.list("standby", standbyOf(t, pu), "primary", pu)
			},
			writes: map[string]int{"standby": 1, "primary": 4},
		},
		{
			// The first bounce rediscovers the primary, so the second
			// standby is skipped rather than bounced off in turn.
			name: "two standbys ahead of the primary",
			ops:  2,
			plane: func(t *testing.T, env *routeEnv) {
				_, h := env.unshardedPrimary(t)
				pu := serve(t, h)
				env.list("standby1", standbyOf(t, pu), "standby2", standbyOf(t, pu), "primary", pu)
			},
			writes: map[string]int{"standby1": 1, "standby2": 0, "primary": 2},
		},
		{
			// The primary (epoch 1) sheds the second op once, so it lands
			// on a deposed primary still answering 200 at epoch 0. The
			// answer stands, but the stale epoch demotes that endpoint:
			// the third op goes back to the primary.
			name: "deposed primary answering with a lower epoch",
			ops:  3,
			plane: func(t *testing.T, env *routeEnv) {
				p, h := env.unshardedPrimary(t)
				if err := p.PromoteEpoch(); err != nil {
					t.Fatal(err)
				}
				shed := intercept(h, func(n int64, w http.ResponseWriter, r *http.Request) bool {
					if n == 2 {
						writeAPIError(w, r, http.StatusServiceUnavailable, ErrUnavailable)
					}
					return n == 2
				})
				deposed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasSuffix(r.URL.Path, "/meta/wal/status") {
						st := p.WALStatus()
						st.Epoch = 0
						writeJSON(w, st)
						return
					}
					h.ServeHTTP(epochWriter{w, "0"}, r)
				})
				env.list("primary", serve(t, shed), "deposed", serve(t, deposed))
			},
			writes: map[string]int{"primary": 3, "deposed": 1},
		},
		{
			// A map one version behind points shard 1 at shard 0's
			// endpoint: one wrong_shard bounce, then the owner directly,
			// and a caller that fetches its map picks up version 2.
			name: "wrong_shard with a newer map version",
			ops:  3,
			plane: func(t *testing.T, env *routeEnv) {
				meta0 := NewMetadata("http://fe.invalid")
				meta1 := NewMetadata("http://fe.invalid")
				u0, u1 := serve(t, meta0.Handler()), serve(t, meta1.Handler())
				truth, err := cluster.NewMetaShardMap(2, [][]string{{u0}, {u1}})
				if err != nil {
					t.Fatal(err)
				}
				meta0.SetShard(0, truth)
				meta1.SetShard(1, truth)
				env.own(t, meta1, 1, truth)
				if env.smap, err = cluster.NewMetaShardMap(1, [][]string{{u0}, {u0}}); err != nil {
					t.Fatal(err)
				}
				env.at["shard1"] = u1
				env.list("shard0", u0)
			},
			writes:     map[string]int{"shard0": 1, "shard1": 3},
			mapVersion: 2,
		},
		{
			// Retry-After stretches the backoff (1-5 ms here) up to the
			// policy's MaxDelay cap.
			name: "Retry-After honoured",
			ops:  1,
			pol:  func(p *RetryPolicy) { p.MaxDelay = 300 * time.Millisecond },
			plane: func(t *testing.T, env *routeEnv) {
				_, h := env.unshardedPrimary(t)
				env.list("primary", serve(t, intercept(h, func(n int64, w http.ResponseWriter, r *http.Request) bool {
					if n == 1 {
						w.Header().Set("Retry-After", "1")
						writeAPIError(w, r, http.StatusServiceUnavailable, ErrUnavailable)
					}
					return n == 1
				})))
			},
			writes: map[string]int{"primary": 2},
			took:   [2]time.Duration{300 * time.Millisecond, time.Second},
		},
		{
			name: "4xx terminal after one attempt",
			ops:  1,
			plane: func(t *testing.T, env *routeEnv) {
				_, h := env.unshardedPrimary(t)
				env.list("primary", serve(t, intercept(h, func(n int64, w http.ResponseWriter, r *http.Request) bool {
					writeAPIError(w, r, http.StatusBadRequest, errors.New("storage: malformed request"))
					return true
				})))
			},
			writes:  map[string]int{"primary": 1},
			wantErr: true,
		},
		{
			// The per-attempt deadline cuts the hung attempt; the retry
			// lands on the primary, which later ops go to directly.
			name: "hung endpoint cut by the per-attempt deadline",
			ops:  2,
			pol:  func(p *RetryPolicy) { p.RequestTimeout = 100 * time.Millisecond },
			plane: func(t *testing.T, env *routeEnv) {
				_, h := env.unshardedPrimary(t)
				// Reading the body first lets the server notice the
				// caller hanging up, so the handler returns then.
				hung := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					io.Copy(io.Discard, r.Body)
					<-r.Context().Done()
				}))
				env.list("hung", hung, "primary", serve(t, h))
			},
			writes: map[string]int{"hung": 1, "primary": 2},
			took:   [2]time.Duration{0, 2 * time.Second},
		},
	}
	for _, row := range rows {
		for _, caller := range routingCallers {
			t.Run(row.name+"/"+caller.name, func(t *testing.T) {
				env := &routeEnv{at: map[string]string{}, writes: map[string]int{}}
				row.plane(t, env)
				pol := RetryPolicy{
					MaxAttempts:    6,
					BaseDelay:      time.Millisecond,
					MaxDelay:       5 * time.Millisecond,
					Multiplier:     2,
					Jitter:         0.5,
					Budget:         64,
					RequestTimeout: 2 * time.Second,
				}
				if row.pol != nil {
					row.pol(&pol)
				}
				op, r := caller.open(t, env, pol)
				start := time.Now()
				for i := 0; i < row.ops; i++ {
					if err := op(i); (err != nil) != row.wantErr {
						t.Fatalf("op %d: err = %v, want error %v", i, err, row.wantErr)
					}
				}
				took := time.Since(start)
				if took < row.took[0] || (row.took[1] > 0 && took >= row.took[1]) {
					t.Errorf("ops took %v, want within [%v, %v)", took, row.took[0], row.took[1])
				}
				env.mu.Lock()
				defer env.mu.Unlock()
				for name, want := range row.writes {
					if got := env.writes[env.at[name]]; got != want {
						t.Errorf("%s received %d writes, want %d", name, got, want)
					}
				}
				if row.mapVersion != 0 && r.fetch != nil {
					if v := r.mapVersion(); v != row.mapVersion {
						t.Errorf("map version %d after the ops, want %d", v, row.mapVersion)
					}
				}
			})
		}
	}
}

// TestRemoteMetaEpochStaleDemotion: an epoch header lower than one
// already seen reads as stale (the signal that demotes an endpoint),
// and demotion reorders the rotation so the next first attempt goes
// elsewhere.
func TestRemoteMetaEpochStaleDemotion(t *testing.T) {
	rt := NewRemoteMeta("http://a,http://b", nil).router.route(0)
	for _, c := range []struct {
		epoch string
		stale bool
	}{{"3", false}, {"2", true}, {"3", false}, {"", false}} {
		h := http.Header{}
		h.Set(MetaEpochHeader, c.epoch)
		if got := rt.observe(h); got != c.stale {
			t.Errorf("epoch %q after seeing 3: stale = %v, want %v", c.epoch, got, c.stale)
		}
	}
	if first := rt.pick(0); first != "http://a" {
		t.Fatalf("initial pick = %q, want the configured head", first)
	}
	rt.demote("http://a")
	if first := rt.pick(0); first != "http://b" {
		t.Fatalf("post-demotion pick = %q, want the surviving endpoint first", first)
	}
	rt.pin("http://a")
	if first := rt.pick(0); first != "http://a" {
		t.Fatalf("pick after pinning = %q, want the pinned endpoint first", first)
	}
}
