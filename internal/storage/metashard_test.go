package storage

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mcloud/internal/cluster"
	"mcloud/internal/metrics"
)

// shardUser returns a user ID the map assigns to the wanted shard.
func shardUser(t *testing.T, m *cluster.MetaShardMap, want int, avoid map[uint64]bool) uint64 {
	t.Helper()
	for u := uint64(1); u < 10_000; u++ {
		if avoid[u] {
			continue
		}
		if m.ShardFor(u) == want {
			return u
		}
	}
	t.Fatalf("no user maps to shard %d", want)
	return 0
}

// commitFor runs the full store-check + commit handshake for one user
// directly against a Metadata, returning the minted URL.
func commitFor(t *testing.T, m *Metadata, shard int, user uint64, data []byte) string {
	t.Helper()
	chk, err := m.StoreCheckCtx(bg, StoreCheckRequest{
		UserID: user, Name: fmt.Sprintf("u%d.bin", user),
		Size: int64(len(data)), FileMD5: SumBytes(data).String(),
	})
	if err != nil {
		t.Fatalf("store-check for user %d: %v", user, err)
	}
	if chk.Duplicate {
		return chk.URL
	}
	if err := m.CommitCtx(bg, shard, chk.URL, SplitSums(data)); err != nil {
		t.Fatalf("commit for user %d: %v", user, err)
	}
	return chk.URL
}

// TestClientWrongShardOneBounce pins the redesign's convergence
// guarantee: a client routing with a stale shard map reaches the
// right shard after exactly one wrong_shard redirect — one request to
// the wrong group, one to the owner, nothing in between.
func TestClientWrongShardOneBounce(t *testing.T) {
	meta0 := NewMetadata("http://fe.invalid")
	meta1 := NewMetadata("http://fe.invalid")
	var hits0, hits1 atomic.Int64
	srv0 := httptest.NewServer(countPosts(meta0.Handler(), &hits0))
	defer srv0.Close()
	srv1 := httptest.NewServer(countPosts(meta1.Handler(), &hits1))
	defer srv1.Close()

	truth, err := cluster.NewMetaShardMap(2, [][]string{{srv0.URL}, {srv1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	meta0.SetShard(0, truth)
	meta1.SetShard(1, truth)

	// A shard-1 user already holds the content, so the misrouted
	// user's store-check dedups on the owner — no front-end involved.
	data := []byte("one-bounce payload")
	seed := shardUser(t, truth, 1, nil)
	commitFor(t, meta1, 1, seed, data)
	user := shardUser(t, truth, 1, map[uint64]bool{seed: true})

	// The stale map is one version behind and — the worst case —
	// points shard 1's group at the shard-0 endpoints.
	stale, err := cluster.NewMetaShardMap(1, [][]string{{srv0.URL}, {srv0.URL}})
	if err != nil {
		t.Fatal(err)
	}
	pol := fastRetry
	c := NewClient(ClientConfig{MetaURL: srv0.URL, UserID: user, Retry: &pol})
	r := c.meta()
	r.smap, r.fetched = stale, true

	res, err := c.StoreFile("bounce.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deduplicated {
		t.Errorf("store did not dedup on the owner shard: %+v", res)
	}
	if got := hits0.Load(); got != 1 {
		t.Errorf("wrong-shard group saw %d requests, want exactly 1 (the bounce)", got)
	}
	if got := hits1.Load(); got != 1 {
		t.Errorf("owner shard saw %d requests, want exactly 1", got)
	}
	r.mu.Lock()
	refetch := !r.fetched
	r.mu.Unlock()
	if !refetch {
		t.Error("redirect carried map version 2 > stale 1, but no shard-map refetch was scheduled")
	}
}

// TestShardMapVersionSkew checks the exchange header accounting: a
// request stamped with an older map version increments
// mcs_meta_shard_skew_total, and the response names the server's
// authoritative shard@version.
func TestShardMapVersionSkew(t *testing.T) {
	meta := NewMetadata()
	smap, err := cluster.NewMetaShardMap(2, [][]string{{"http://a"}, {"http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	meta.SetShard(0, smap) // before Instrument: series labels carry the shard
	reg := metrics.NewRegistry()
	meta.Instrument(reg)
	srv := httptest.NewServer(meta.Handler())
	defer srv.Close()

	for i, hdr := range []string{"0@1", "0@2", "1@1"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/meta/shards", nil)
		req.Header.Set(APIHeader, APIV1)
		req.Header.Set(MetaShardHeader, hdr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resp.Header.Get(MetaShardHeader), FormatMetaShard(0, 2); got != want {
			t.Errorf("request %d: response %s = %q, want %q", i, MetaShardHeader, got, want)
		}
		resp.Body.Close()
	}

	ops := httptest.NewServer(metrics.OpsMux(reg, &metrics.Health{}))
	defer ops.Close()
	mresp, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	vals, err := metrics.ParseText(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Two of the three requests routed with map version 1 != 2; the
	// matching-version one must not count.
	key := metrics.Key("mcs_meta_shard_skew_total", "shard", "0")
	if got := vals[key]; got != 2 {
		t.Errorf("%s = %v, want 2", key, got)
	}
}

// TestRemoteMetaPerShardIsolation hammers a two-shard RemoteMeta from
// concurrent goroutines (run under -race) where shard 1's preferred
// endpoint is dead: shard 1 must converge onto its live standby via
// per-shard rotation, and none of that failover traffic may leak into
// shard 0's routing.
func TestRemoteMetaPerShardIsolation(t *testing.T) {
	meta0 := NewMetadata("http://fe.invalid")
	meta1 := NewMetadata("http://fe.invalid")
	var ops0 atomic.Int64
	srv0 := httptest.NewServer(countPosts(meta0.Handler(), &ops0))
	defer srv0.Close()
	srv1 := httptest.NewServer(meta1.Handler())
	defer srv1.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on

	smap, err := cluster.NewMetaShardMap(3, [][]string{{srv0.URL}, {dead.URL, srv1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	meta0.SetShard(0, smap)
	meta1.SetShard(1, smap)

	data0 := []byte("shard zero content")
	data1 := []byte("shard one content")
	commitFor(t, meta0, 0, shardUser(t, smap, 0, nil), data0)
	commitFor(t, meta1, 1, shardUser(t, smap, 1, nil), data1)
	sum0, sum1 := SumBytes(data0), SumBytes(data1)

	rm := NewShardedRemoteMeta(smap, nil)
	rm.SetRetry(fastMetaRetry, 1)

	const workers, iters = 4, 20
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := rm.LookupCtx(bg, 0, sum0); err != nil {
					errs <- fmt.Errorf("shard 0 lookup: %w", err)
				}
				if _, err := rm.LookupCtx(bg, 1, sum1); err != nil {
					errs <- fmt.Errorf("shard 1 lookup: %w", err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Shard 0's endpoint saw exactly its own lookups: shard 1's
	// dead-endpoint retries never crossed shard boundaries.
	if got, want := ops0.Load(), int64(workers*iters); got != want {
		t.Errorf("shard 0 endpoint saw %d POSTs, want %d (no cross-shard leakage)", got, want)
	}
	// Shard 1's route converged onto its live standby; shard 0's route
	// saw none of the failover.
	r1, r0 := rm.router.route(1), rm.router.route(0)
	if got := r1.pick(0); got != srv1.URL {
		t.Errorf("shard 1 routes first to %s, want the live endpoint %s", got, srv1.URL)
	}
	if got := r0.pick(0); got != srv0.URL || r0.health.Down() != 0 {
		t.Errorf("shard 0 routes first to %s with %d endpoints down, want %s and none", got, r0.health.Down(), srv0.URL)
	}
}

// TestMetaReshardRoundTrip replays an operator resharding: a
// single-shard plane is split in two, the rebalancer moves every
// misplaced namespace through export/import/evict, client-held URLs
// survive the move, and a -verify pass comes back clean.
func TestMetaReshardRoundTrip(t *testing.T) {
	meta0 := NewMetadata("http://fe.invalid")
	meta1 := NewMetadata("http://fe.invalid")
	srv0 := httptest.NewServer(meta0.Handler())
	defer srv0.Close()
	srv1 := httptest.NewServer(meta1.Handler())
	defer srv1.Close()

	v1, err := cluster.NewMetaShardMap(1, [][]string{{srv0.URL}})
	if err != nil {
		t.Fatal(err)
	}
	meta0.SetShard(0, v1)

	// Populate the unsharded plane: every user lands on shard 0.
	v2, err := cluster.NewMetaShardMap(2, [][]string{{srv0.URL}, {srv1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	urls := make(map[uint64]string)
	misplaced := 0
	for u := uint64(1); u <= 8; u++ {
		urls[u] = commitFor(t, meta0, 0, u, []byte(fmt.Sprintf("content of user %d", u)))
		if v2.ShardFor(u) == 1 {
			misplaced++
		}
	}
	if misplaced == 0 || misplaced == len(urls) {
		t.Fatalf("degenerate split: %d of %d users misplaced", misplaced, len(urls))
	}

	// The operator reshards: both nodes adopt the two-shard map.
	meta0.SetShard(0, v2)
	meta1.SetShard(1, v2)

	rb := &MetaRebalancer{Seed: srv0.URL, Logf: t.Logf}
	rep, err := rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 2 || rep.MapVersion != 2 {
		t.Errorf("report shards=%d version=%d, want 2/2", rep.Shards, rep.MapVersion)
	}
	if rep.Errors != 0 {
		t.Fatalf("rebalance reported %d errors", rep.Errors)
	}
	if rep.Misplaced != misplaced || rep.Moved != misplaced || rep.Evicted != misplaced {
		t.Errorf("misplaced/moved/evicted = %d/%d/%d, want all %d",
			rep.Misplaced, rep.Moved, rep.Evicted, misplaced)
	}

	// Client-held URLs survive the move, on the owning shard only.
	for u, url := range urls {
		owner, other := meta0, meta1
		if v2.ShardFor(u) == 1 {
			owner, other = meta1, meta0
		}
		if _, err := owner.LookupURL(url); err != nil {
			t.Errorf("user %d: URL %s lost on owner shard %d: %v", u, url, v2.ShardFor(u), err)
		}
		if files := other.UserFiles(u); len(files) != 0 {
			t.Errorf("user %d: %d leftover files on the non-owner shard", u, len(files))
		}
	}

	// A -verify audit after the move finds a converged plane.
	check := &MetaRebalancer{Seed: srv0.URL, Verify: true}
	rep, err = check.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misplaced != 0 || rep.Users != len(urls) {
		t.Errorf("verify: users=%d misplaced=%d, want %d/0", rep.Users, rep.Misplaced, len(urls))
	}
}

// TestMetaRebalanceFindsPrimary: the rebalancer sends every census and
// move to each shard group's current primary, whatever the group's
// endpoint order. Each group lists an idle standby first and a deposed
// (fenced) ex-primary beside the real one; the moves land with no
// errors. A group of standbys only has no primary, and Run refuses it.
func TestMetaRebalanceFindsPrimary(t *testing.T) {
	type group struct {
		nodes   []*Metadata // standby, deposed, primary
		eps     []string
		primary *Metadata
	}
	newGroup := func() group {
		var g group
		for i := 0; i < 3; i++ {
			m := NewMetadata("http://fe.invalid")
			g.nodes = append(g.nodes, m)
			g.eps = append(g.eps, serve(t, m.Handler()))
		}
		standby, deposed, primary := g.nodes[0], g.nodes[1], g.nodes[2]
		standby.SetStandby(g.eps[2]) // no pull loop: it never catches up
		deposed.Promote()            // epoch 1 ...
		deposed.ObserveEpoch(2)      // ... deposed by epoch 2
		primary.SetStandby(g.eps[1])
		primary.ObserveEpoch(1)
		primary.Promote() // epoch 2
		if !deposed.Fenced() || primary.Fenced() || primary.Epoch() != 2 {
			t.Fatalf("setup: deposed fenced=%v, primary fenced=%v epoch=%d", deposed.Fenced(), primary.Fenced(), primary.Epoch())
		}
		g.primary = primary
		return g
	}
	g0, g1 := newGroup(), newGroup()

	v1, err := cluster.NewMetaShardMap(1, [][]string{g0.eps})
	if err != nil {
		t.Fatal(err)
	}
	g0.primary.SetShard(0, v1)
	v2, err := cluster.NewMetaShardMap(2, [][]string{g0.eps, g1.eps})
	if err != nil {
		t.Fatal(err)
	}
	urls := make(map[uint64]string)
	misplaced := 0
	for u := uint64(1); u <= 8; u++ {
		urls[u] = commitFor(t, g0.primary, 0, u, []byte(fmt.Sprintf("content of user %d", u)))
		if v2.ShardFor(u) == 1 {
			misplaced++
		}
	}
	if misplaced == 0 || misplaced == len(urls) {
		t.Fatalf("degenerate split: %d of %d users misplaced", misplaced, len(urls))
	}
	for i, g := range []group{g0, g1} {
		for _, m := range g.nodes {
			m.SetShard(i, v2)
		}
	}

	// The seed is shard 0's standby: any endpoint serves the map.
	rep, err := (&MetaRebalancer{Seed: g0.eps[0], Logf: t.Logf}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Misplaced != misplaced || rep.Moved != misplaced || rep.Evicted != misplaced {
		t.Fatalf("report %+v, want %d misplaced, moved and evicted with no errors", rep, misplaced)
	}
	for u, url := range urls {
		owner, other := g0.primary, g1.primary
		if v2.ShardFor(u) == 1 {
			owner, other = g1.primary, g0.primary
		}
		if _, err := owner.LookupURL(url); err != nil {
			t.Errorf("user %d: URL %s lost on its owner's primary: %v", u, url, err)
		}
		if files := other.UserFiles(u); len(files) != 0 {
			t.Errorf("user %d: %d leftover files on the other shard's primary", u, len(files))
		}
	}
	for _, g := range []group{g0, g1} {
		for _, m := range g.nodes[:2] {
			if st := m.WALStatus(); st.Files != 0 {
				t.Errorf("a standby or deposed node holds %d files: a move went to it", st.Files)
			}
		}
	}

	// A map whose shard 1 group holds only standbys: no primary to move to.
	v3, err := cluster.NewMetaShardMap(3, [][]string{g0.eps, {g1.eps[0]}})
	if err != nil {
		t.Fatal(err)
	}
	g0.nodes[0].SetShard(0, v3)
	_, err = (&MetaRebalancer{Seed: g0.eps[0], Logf: t.Logf}).Run()
	if err == nil || !strings.Contains(err.Error(), "no endpoint answers as primary") {
		t.Fatalf("Run over a standby-only group = %v, want the no-primary error", err)
	}
}

// TestMetaRebalanceRetriedExportStaysOnPrimary pins that a move's
// export is answered by the source primary even on a retry: the
// primary fails its first export with a 500, and the retry's next
// endpoint is a standby holding only a subset of the user's files.
// Had that subset been moved, the evict on the primary would have
// dropped the rest. Run must move every file or evict nothing.
func TestMetaRebalanceRetriedExportStaysOnPrimary(t *testing.T) {
	primary, standby, owner := NewMetadata("http://fe.invalid"), NewMetadata("http://fe.invalid"), NewMetadata("http://fe.invalid")
	inner := primary.Handler()
	var exports atomic.Int64
	pep := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/meta/export" && exports.Add(1) == 1 {
			http.Error(w, "injected export failure", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	sep, oep := serve(t, standby.Handler()), serve(t, owner.Handler())

	v1, err := cluster.NewMetaShardMap(1, [][]string{{pep, sep}})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := cluster.NewMetaShardMap(2, [][]string{{pep, sep}, {oep}})
	if err != nil {
		t.Fatal(err)
	}
	user := shardUser(t, v2, 1, nil)
	primary.SetShard(0, v1)
	standby.SetShard(0, v1)
	var urls []string
	for i := 0; i < 3; i++ {
		data := []byte(fmt.Sprintf("file %d of user %d", i, user))
		urls = append(urls, commitFor(t, primary, 0, user, data))
		if i == 0 {
			commitFor(t, standby, 0, user, data) // the standby lags: one file of three
		}
	}
	standby.SetStandby(pep) // no pull loop: it never catches up
	primary.SetShard(0, v2)
	standby.SetShard(0, v2)
	owner.SetShard(1, v2)

	rep, err := (&MetaRebalancer{Seed: pep, Logf: t.Logf}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range urls {
		_, onOwner := owner.LookupURL(url)
		_, onSource := primary.LookupURL(url)
		if onOwner != nil && onSource != nil {
			t.Errorf("URL %s lost: on neither the owner (%v) nor the source primary (%v)", url, onOwner, onSource)
		}
	}
	if exports.Load() < 2 {
		t.Fatalf("%d exports reached the primary: the injected failure was not retried there", exports.Load())
	}
	if rep.Errors != 0 || rep.Moved != 1 || rep.Evicted != 1 {
		t.Fatalf("report %+v, want the one user moved and evicted with no errors", rep)
	}
	if n := len(owner.UserFiles(user)); n != len(urls) {
		t.Fatalf("owner holds %d of the user's %d files", n, len(urls))
	}
}
