package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastFailover arms a MetaStandby with test-speed lease parameters.
func fastFailover(s *MetaStandby, rivals ...string) {
	s.SetFailover(60*time.Millisecond, rivals...)
}

// TestMetaEpochFencingRejoin is the core fencing matrix entry: a
// primary is deposed by a promoted standby, keeps running unaware, and
// must be fenced the moment it sees the new epoch — then rejoin as a
// standby of the new primary via a cross-epoch snapshot reseed.
func TestMetaEpochFencingRejoin(t *testing.T) {
	old := openDurableMeta(t, t.TempDir())
	oldSrv := httptest.NewServer(old.Handler())
	defer oldSrv.Close()

	neu := openDurableMeta(t, t.TempDir())
	puller := NewMetaStandby(neu, oldSrv.URL, nil, 5*time.Millisecond)
	puller.Start()
	defer puller.Close()

	var urls []string
	for i := 0; i < 8; i++ {
		urls = append(urls, metaUpload(t, old, 60, i, 1))
	}
	waitFor(t, "standby catch-up", func() bool { return neu.LastSeq() == old.LastSeq() })

	// Failover: the standby is promoted while the old primary is still
	// alive and, at its own epoch, still willing to take writes.
	puller.Close()
	if err := neu.PromoteEpoch(); err != nil {
		t.Fatal(err)
	}
	if ep := neu.Epoch(); ep != 1 {
		t.Fatalf("promoted epoch = %d, want 1", ep)
	}
	postURL := metaUpload(t, neu, 60, 100, 2)

	// A request carrying the new epoch fences the old primary: the
	// typed envelope comes back with code "fenced" and a 503.
	req, err := http.NewRequest(http.MethodPost, oldSrv.URL+"/v1/meta/store-check",
		strings.NewReader(`{"user_id":9,"name":"fp","size":1,"file_md5":"d41d8cd98f00b204e9800998ecf8427e"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(MetaEpochHeader, strconv.FormatUint(neu.Epoch(), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Code != CodeFenced {
		t.Fatalf("deposed write: status=%d code=%q, want 503/%q", resp.StatusCode, env.Code, CodeFenced)
	}
	// Once fenced, every direct write bounces with the typed sentinel.
	data := testChunk(60, 200)
	if _, err := old.StoreCheckCtx(bg, StoreCheckRequest{UserID: 9, Name: "x", Size: 1, FileMD5: SumBytes(data).String()}); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced write: err = %v, want ErrFenced", err)
	}
	if st := old.WALStatus(); !st.Fenced || st.Epoch != 0 {
		t.Fatalf("deposed status = %+v, want fenced at epoch 0", st)
	}

	// Rejoin: the deposed primary becomes a standby of the new primary
	// and is reseeded across the epoch boundary (its tail could hold
	// forked records the new primary never saw).
	neuSrv := httptest.NewServer(neu.Handler())
	defer neuSrv.Close()
	rejoin := NewMetaStandby(old, neuSrv.URL, nil, 5*time.Millisecond)
	rejoin.Start()
	defer rejoin.Close()
	waitFor(t, "rejoin catch-up", func() bool {
		return old.LastSeq() == neu.LastSeq() && old.Epoch() == neu.Epoch()
	})
	requireSameState(t, neu, old, "rejoined standby")
	st := old.WALStatus()
	if !st.Standby || st.Fenced || st.Primary != neuSrv.URL {
		t.Fatalf("rejoined status = %+v", st)
	}
	if _, err := old.StoreCheckCtx(bg, StoreCheckRequest{UserID: 9, Name: "y", Size: 1, FileMD5: SumBytes(data).String()}); !errors.Is(err, ErrNotPrimary) || !IsUnavailable(err) {
		t.Fatalf("standby write: err = %v, want ErrNotPrimary (retryable)", err)
	}
	// Every pre- and post-failover file is on both nodes.
	for _, u := range append(append([]string(nil), urls...), postURL) {
		if _, err := old.LookupURL(u); err != nil {
			t.Fatalf("rejoined standby missing %s: %v", u, err)
		}
	}
}

// TestMetaDoublePromotion: two nodes race for the same dead primary.
// The loser's rival check finds the winner already promoted at an
// equal-or-higher epoch, aborts its own promotion, and rejoins as the
// winner's standby instead of forking history.
func TestMetaDoublePromotion(t *testing.T) {
	winner := NewMetadata("fe")
	winner.SetStandby("gone")
	if err := winner.PromoteEpoch(); err != nil {
		t.Fatal(err)
	}
	metaReserveOnly(t, winner, 61, 50)
	winSrv := httptest.NewServer(winner.Handler())
	defer winSrv.Close()

	primary := NewMetadata("fe")
	priSrv := httptest.NewServer(primary.Handler())

	loser := NewMetadata("fe")
	puller := NewMetaStandby(loser, priSrv.URL, nil, 5*time.Millisecond)
	fastFailover(puller, winSrv.URL)
	puller.Start()
	defer puller.Close()

	for i := 0; i < 3; i++ {
		metaReserveOnly(t, primary, 61, i)
	}
	waitFor(t, "loser catch-up", func() bool { return loser.LastSeq() == primary.LastSeq() })

	priSrv.CloseClientConnections()
	priSrv.Close()

	waitFor(t, "promotion abort", func() bool { return puller.aborts.Load() >= 1 })
	if n := puller.promotions.Load(); n != 0 {
		t.Fatalf("loser promoted %d times, want 0", n)
	}
	// The loser retargets at the winner and reseeds across the epochs.
	waitFor(t, "retargeted catch-up", func() bool {
		return loser.Epoch() == winner.Epoch() && loser.LastSeq() == winner.LastSeq()
	})
	st := loser.WALStatus()
	if !st.Standby || st.Primary != winSrv.URL {
		t.Fatalf("loser status = %+v, want standby of %s", st, winSrv.URL)
	}
	requireSameState(t, winner, loser, "loser rejoined winner")
}

// TestMetaPromotionRace: promoting mid-pull-stream must stop the pull
// loop synchronously, so no replicated batch can land after local
// writes resume — the race the old flag-flip Promote() had. Run under
// -race in CI.
func TestMetaPromotionRace(t *testing.T) {
	primary := NewMetadata("fe")
	priSrv := httptest.NewServer(primary.Handler())
	defer priSrv.Close()

	standby := NewMetadata("fe")
	puller := NewMetaStandby(standby, priSrv.URL, nil, time.Millisecond)
	puller.Start()
	defer puller.Close()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			data := testChunk(62, i)
			primary.StoreCheckCtx(bg, StoreCheckRequest{
				UserID: 1, Name: fmt.Sprintf("race-%d", i), Size: int64(len(data)), FileMD5: SumBytes(data).String(),
			})
		}
	}()
	waitFor(t, "stream flowing", func() bool { return standby.LastSeq() > 20 })

	// Promote while batches are in flight: returns only after the pull
	// loop has exited.
	if err := standby.PromoteEpoch(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-writerDone

	seq := standby.LastSeq()
	data := testChunk(62, 100000)
	if _, err := standby.StoreCheckCtx(bg, StoreCheckRequest{UserID: 5, Name: "after", Size: 1, FileMD5: SumBytes(data).String()}); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if standby.LastSeq() != seq+1 {
		t.Fatalf("lastSeq %d -> %d, want contiguous local append", seq, standby.LastSeq())
	}
	// A stray replicated batch arriving after promotion is rejected
	// outright rather than interleaved with local writes.
	stray := []MetaWALRecord{{Seq: standby.LastSeq() + 1, Op: walOpReserve, User: 2, URL: "/f/stray/1", Name: "s", Size: 1, FileMD5: SumBytes(data).String(), URLSeq: 999999}}
	if _, err := standby.ApplyReplicated(stray); !errors.Is(err, errNotStandby) {
		t.Fatalf("stray batch: err = %v, want errNotStandby", err)
	}
}

// TestMetaLeaseExpiryDuringFsyncStall: the primary's WAL fsync hangs
// mid-commit while the primary dies to the outside world. The lease
// expires, the standby promotes, and the stalled commit — which the
// standby had already replicated, which is the only reason the
// primary may still ack it — survives on the new primary. Nothing
// acked is lost.
func TestMetaLeaseExpiryDuringFsyncStall(t *testing.T) {
	primary := openDurableMeta(t, t.TempDir())
	priSrv := httptest.NewServer(primary.Handler())
	defer priSrv.Close()

	standby := NewMetadata("fe")
	puller := NewMetaStandby(standby, priSrv.URL, nil, 2*time.Millisecond)
	fastFailover(puller)
	puller.Start()
	defer puller.Close()

	for i := 0; i < 5; i++ {
		metaUpload(t, primary, 63, i, 1)
	}
	waitFor(t, "standby catch-up", func() bool { return standby.LastSeq() == primary.LastSeq() })

	// Stall the primary's next fsync and start a write into the stall.
	release := make(chan struct{})
	metaFsyncDelay = func() { <-release }
	defer func() { metaFsyncDelay = nil }()
	type res struct {
		url string
		err error
	}
	stalled := make(chan res, 1)
	data := testChunk(63, 999)
	stallSeq := primary.LastSeq() + 1
	go func() {
		r, err := primary.StoreCheckCtx(bg, StoreCheckRequest{UserID: 3, Name: "stall", Size: int64(len(data)), FileMD5: SumBytes(data).String()})
		stalled <- res{r.URL, err}
	}()

	// The record is in the primary's tail before durability, so the
	// standby replicates and acknowledges it while the fsync hangs.
	waitFor(t, "stalled record replicated", func() bool {
		return standby.LastSeq() == stallSeq &&
			primary.WALStatus().ReplAckSeq == stallSeq
	})

	// The primary "dies": pulls fail, the lease expires, the standby
	// promotes — all while the commit is still stuck in fsync.
	priSrv.CloseClientConnections()
	priSrv.Close()
	waitFor(t, "lease-expiry promotion", func() bool { return puller.promotions.Load() == 1 })
	select {
	case r := <-stalled:
		t.Fatalf("stalled commit returned before fsync release: %+v", r)
	default:
	}

	close(release)
	r := <-stalled
	if r.err != nil {
		t.Fatalf("stalled commit: %v", r.err)
	}
	// The ack was only possible because the standby holds the record:
	// it must be resolvable on the new primary.
	if _, err := standby.LookupURL(r.url); err != nil {
		t.Fatalf("acked-during-stall record missing on new primary: %v", err)
	}
	// And the moment the deposed primary hears the new epoch, it stops
	// acking anything.
	primary.ObserveEpoch(standby.Epoch())
	if _, err := primary.StoreCheckCtx(bg, StoreCheckRequest{UserID: 3, Name: "late", Size: 1, FileMD5: SumBytes(testChunk(63, 1000)).String()}); !errors.Is(err, ErrFenced) {
		t.Fatalf("post-fence write: err = %v, want ErrFenced", err)
	}
}

// TestAutoFailover is the end-to-end path the cluster smoke gates on:
// a SIGKILLed primary that never comes back, a standby that promotes
// itself on lease expiry, and clients that follow the promotion — with
// every acknowledged commit still resolvable afterwards.
func TestAutoFailover(t *testing.T) {
	primary := openDurableMeta(t, t.TempDir())
	priSrv := httptest.NewServer(primary.Handler())
	defer priSrv.Close()

	standby := openDurableMeta(t, t.TempDir())
	stbSrv := httptest.NewServer(standby.Handler())
	defer stbSrv.Close()
	puller := NewMetaStandby(standby, priSrv.URL, nil, 5*time.Millisecond)
	fastFailover(puller)
	puller.Start()
	defer puller.Close()

	var urls []string
	for i := 0; i < 10; i++ {
		urls = append(urls, metaUpload(t, primary, 64, i, 1+uint64(i%3)))
	}
	waitFor(t, "pre-kill replication", func() bool {
		return standby.LastSeq() == primary.LastSeq() &&
			primary.WALStatus().ReplAckSeq == primary.LastSeq()
	})

	// Kill the primary. No restart.
	priSrv.CloseClientConnections()
	priSrv.Close()
	waitFor(t, "self-promotion", func() bool { return puller.promotions.Load() == 1 })
	st := standby.WALStatus()
	if st.Standby || st.Fenced || st.Epoch != 1 {
		t.Fatalf("promoted status = %+v, want primary at epoch 1", st)
	}

	// Every commit acked before the kill survived the failover.
	for _, u := range urls {
		if _, err := standby.LookupURL(u); err != nil {
			t.Fatalf("acked commit %s lost in failover: %v", u, err)
		}
	}

	// A client configured with both endpoints follows the promotion:
	// the dead endpoint is rotated away from and the promoted standby
	// handles the writes.
	rm := NewRemoteMeta(priSrv.URL+","+stbSrv.URL, &http.Client{})
	rm.SetRetry(fastMetaRetry, 1)
	data := testChunk(64, 500)
	resp, err := standby.StoreCheckCtx(bg, StoreCheckRequest{UserID: 9, Name: "post", Size: int64(len(data)), FileMD5: SumBytes(data).String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.CommitCtx(bg, 0, resp.URL, SplitSums(data)); err != nil {
		t.Fatalf("post-failover commit via client: %v", err)
	}
	if f, err := rm.LookupCtx(bg, 0, SumBytes(data)); err != nil || f.URL != resp.URL {
		t.Fatalf("post-failover lookup: %+v %v", f, err)
	}
}

// TestRemoteMetaDemotion is the regression for the sticky-endpoint
// bug: after one standby bounce the endpoint list is reordered, so the
// NEXT operation's first attempt goes straight to the primary instead
// of re-bouncing off the deposed endpoint every time.
func TestRemoteMetaDemotion(t *testing.T) {
	primary := NewMetadata("fe")
	var priPosts atomic.Int64
	priSrv := httptest.NewServer(countPosts(primary.Handler(), &priPosts))
	defer priSrv.Close()

	standby := NewMetadata("fe")
	standby.SetStandby(priSrv.URL)
	var stbPosts atomic.Int64
	stbSrv := httptest.NewServer(countPosts(standby.Handler(), &stbPosts))
	defer stbSrv.Close()

	// Standby listed first: the configured order is wrong on purpose.
	rm := NewRemoteMeta(stbSrv.URL+","+priSrv.URL, nil)
	rm.SetRetry(fastMetaRetry, 1)

	commit := func(seed int) {
		t.Helper()
		data := testChunk(65, seed)
		resp, err := primary.StoreCheckCtx(bg, StoreCheckRequest{UserID: 1, Name: fmt.Sprintf("d-%d", seed), Size: int64(len(data)), FileMD5: SumBytes(data).String()})
		if err != nil {
			t.Fatal(err)
		}
		if err := rm.CommitCtx(bg, 0, resp.URL, SplitSums(data)); err != nil {
			t.Fatal(err)
		}
	}
	commit(1)
	if n := stbPosts.Load(); n != 1 {
		t.Fatalf("first op: standby took %d write attempts, want exactly 1 bounce", n)
	}
	// The bounce demoted the standby endpoint: later operations start
	// at the primary and never touch the standby again.
	for i := 2; i <= 4; i++ {
		commit(i)
	}
	if n := stbPosts.Load(); n != 1 {
		t.Fatalf("standby write attempts after demotion = %d, want 1 (no re-bounces)", n)
	}
	if n := priPosts.Load(); n != 4 {
		t.Fatalf("primary write attempts = %d, want 4", n)
	}
}

// countPosts counts mutating requests, excluding the /meta/wal/status
// discovery probes the client issues after a demotion.
func countPosts(inner http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && !strings.Contains(r.URL.Path, "/meta/wal/") {
			n.Add(1)
		}
		inner.ServeHTTP(w, r)
	})
}

// TestPickFrontEndBreaker: the round-robin assignment skips front-ends
// whose breaker is open, falls back to blind rotation when every one
// is down, and re-admits a front-end the moment it reports healthy.
func TestPickFrontEndBreaker(t *testing.T) {
	m := NewMetadata("a", "b", "c")
	pick := func() string {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.pickFrontEnd()
	}

	// Trip b's breaker (threshold 2).
	m.ReportFrontEnd("b", false)
	m.ReportFrontEnd("b", false)
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		seen[pick()]++
	}
	if seen["b"] != 0 {
		t.Fatalf("open-breaker front-end still assigned: %v", seen)
	}
	if seen["a"] == 0 || seen["c"] == 0 {
		t.Fatalf("healthy front-ends not rotated: %v", seen)
	}

	// All breakers open: a maybe-dead assignment beats refusing.
	for _, fe := range []string{"a", "c"} {
		m.ReportFrontEnd(fe, false)
		m.ReportFrontEnd(fe, false)
	}
	if fe := pick(); fe == "" {
		t.Fatal("all-down fallback returned no front-end")
	}

	// b recovers: it is the only alive node, so every pick lands on it.
	m.ReportFrontEnd("b", true)
	for i := 0; i < 4; i++ {
		if fe := pick(); fe != "b" {
			t.Fatalf("recovered front-end not re-admitted: got %q", fe)
		}
	}
}
