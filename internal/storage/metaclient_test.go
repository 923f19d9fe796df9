package storage

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fastMetaRetry keeps RemoteMeta tests quick.
var fastMetaRetry = RetryPolicy{
	MaxAttempts:    6,
	BaseDelay:      time.Millisecond,
	MaxDelay:       5 * time.Millisecond,
	Multiplier:     2,
	Jitter:         0.5,
	RequestTimeout: 2 * time.Second,
}

// TestRemoteMetaRetriesTransients: 503s (with Retry-After) are retried
// until the server recovers; the commit lands exactly once.
func TestRemoteMetaRetriesTransients(t *testing.T) {
	meta := NewMetadata("fe")
	data := testChunk(50, 1)
	resp, err := meta.StoreCheckCtx(bg, StoreCheckRequest{UserID: 1, Name: "r", Size: int64(len(data)), FileMD5: SumBytes(data).String()})
	if err != nil {
		t.Fatal(err)
	}
	inner := meta.Handler()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeAPIError(w, r, http.StatusServiceUnavailable, ErrUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rm := NewRemoteMeta(srv.URL, nil)
	rm.SetRetry(fastMetaRetry, 1)
	if err := rm.CommitCtx(bg, 0, resp.URL, SplitSums(data)); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if _, err := meta.LookupCtx(bg, 0, SumBytes(data)); err != nil {
		t.Fatalf("commit did not land: %v", err)
	}
}

// TestRemoteMetaNoRetryOnNotFound: a 404 envelope unwraps to
// ErrNotFound and is terminal — exactly one attempt.
func TestRemoteMetaNoRetryOnNotFound(t *testing.T) {
	meta := NewMetadata("fe")
	var attempts atomic.Int64
	inner := meta.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rm := NewRemoteMeta(srv.URL, nil)
	rm.SetRetry(fastMetaRetry, 1)
	if err := rm.CommitCtx(bg, 0, "/f/unknown/1", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (4xx must not retry)", got)
	}
}

// TestRemoteMetaDeadline: a hung server trips the per-attempt deadline
// instead of blocking the front-end forever.
func TestRemoteMetaDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	rm := NewRemoteMeta(srv.URL, &http.Client{})
	pol := fastMetaRetry
	pol.MaxAttempts = 2
	pol.RequestTimeout = 50 * time.Millisecond
	rm.SetRetry(pol, 1)
	start := time.Now()
	err := rm.CommitCtx(bg, 0, "/f/x/1", nil)
	if err == nil {
		t.Fatal("commit against hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not fire: took %v", elapsed)
	}
}

// TestRemoteMetaFailover: with a dead endpoint listed first, attempts
// rotate to the live one; once the breaker trips, the live endpoint is
// tried first and a single round trip suffices.
func TestRemoteMetaFailover(t *testing.T) {
	meta := NewMetadata("fe")
	live := httptest.NewServer(meta.Handler())
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	rm := NewRemoteMeta(deadURL+","+live.URL, &http.Client{})
	rm.SetRetry(fastMetaRetry, 1)

	data := testChunk(51, 1)
	resp, err := meta.StoreCheckCtx(bg, StoreCheckRequest{UserID: 1, Name: "f", Size: int64(len(data)), FileMD5: SumBytes(data).String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.CommitCtx(bg, 0, resp.URL, SplitSums(data)); err != nil {
		t.Fatalf("failover commit: %v", err)
	}
	if f, err := rm.LookupCtx(bg, 0, SumBytes(data)); err != nil || f.URL != resp.URL {
		t.Fatalf("failover lookup: %+v %v", f, err)
	}
}

// TestRemoteMetaStandbyRouting: a write that first lands on a standby
// is bounced with a retryable 503 and retried until it reaches the
// primary — the failover path a metadata-node kill exercises.
func TestRemoteMetaStandbyRouting(t *testing.T) {
	primary := NewMetadata("fe")
	psrv := httptest.NewServer(primary.Handler())
	defer psrv.Close()

	standby := NewMetadata("fe")
	standby.SetStandby(psrv.URL)
	ssrv := httptest.NewServer(standby.Handler())
	defer ssrv.Close()

	// Standby listed first: the write bounces there, then rotates.
	rm := NewRemoteMeta(ssrv.URL+","+psrv.URL, nil)
	rm.SetRetry(fastMetaRetry, 1)

	data := testChunk(52, 1)
	resp, err := primary.StoreCheckCtx(bg, StoreCheckRequest{UserID: 1, Name: "s", Size: int64(len(data)), FileMD5: SumBytes(data).String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.CommitCtx(bg, 0, resp.URL, SplitSums(data)); err != nil {
		t.Fatalf("commit through standby bounce: %v", err)
	}
	if _, err := primary.LookupCtx(bg, 0, SumBytes(data)); err != nil {
		t.Fatalf("commit did not land on primary: %v", err)
	}
}
