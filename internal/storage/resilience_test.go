package storage

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mcloud/internal/metrics"
	"mcloud/internal/randx"
	"mcloud/internal/trace"
)

// fastRetry keeps resilience tests quick: real retries, tiny backoffs.
var fastRetry = RetryPolicy{
	MaxAttempts:    4,
	BaseDelay:      time.Millisecond,
	MaxDelay:       5 * time.Millisecond,
	Multiplier:     2,
	Jitter:         0.1,
	Budget:         64,
	RequestTimeout: 10 * time.Second,
}

// newFlakyService is newTestService with a middleware hook on the
// front-end handler, for injecting targeted failures; disableBin pins
// the front-end to the JSON chunk paths.
func newFlakyService(t *testing.T, disableBin bool, wrap func(http.Handler) http.Handler) (*Client, *MemStore, func()) {
	t.Helper()
	store := NewMemStore()
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{Store: store, Meta: meta, DisableBin: disableBin})
	h := fe.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	feSrv := httptest.NewServer(h)
	metaSrv := httptest.NewServer(meta.Handler())
	meta.AddFrontEnd(feSrv.URL)
	pol := fastRetry
	client := NewClient(ClientConfig{
		MetaURL:  metaSrv.URL,
		UserID:   42,
		DeviceID: 7,
		Device:   trace.Android,
		Retry:    &pol,
	})
	cleanup := func() {
		feSrv.Close()
		metaSrv.Close()
	}
	return client, store, cleanup
}

// reconfigure returns a new client from c's configuration as edit
// changes it: a client's configuration never changes under it.
func reconfigure(c *Client, edit func(*ClientConfig)) *Client {
	cfg := c.cfg
	edit(&cfg)
	return NewClient(cfg)
}

// isChunkReq matches chunk requests in either API dialect
// ("/chunk/{md5}" or "/v1/chunk/{md5}").
func isChunkReq(r *http.Request) bool {
	return strings.HasPrefix(strings.TrimPrefix(r.URL.Path, "/v1"), "/chunk/")
}

func chunkedData(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	src := randx.New(seed)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(src.Uint64())
	}
	return data
}

// TestRetryTransient5xx: a metadata server that fails twice with 503
// must not fail the store — the client retries and recovers.
func TestRetryTransient5xx(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			// The one-time shard-map bootstrap probe; not an op attempt.
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= 2 {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("overloaded"))
			return
		}
		writeJSON(w, StoreCheckResponse{Duplicate: true, URL: "/f/dup"})
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	pol := fastRetry
	client := NewClient(ClientConfig{MetaURL: srv.URL, UserID: 1, Retry: &pol, Metrics: NewClientMetrics(reg)})
	res, err := client.StoreFile("a.bin", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deduplicated || res.URL != "/f/dup" {
		t.Errorf("result = %+v", res)
	}
	if attempts != 3 {
		t.Errorf("server saw %d attempts, want 3", attempts)
	}
	st := client.cfg.Metrics.Stats()
	if st.Retries != 2 || st.RetrySuccess != 1 {
		t.Errorf("stats = %+v, want 2 retries / 1 recovered", st)
	}
}

// TestPermanent4xxFailsFast: client-caused errors must not be retried.
func TestPermanent4xxFailsFast(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		attempts++
		mu.Unlock()
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed"))
	}))
	defer srv.Close()

	pol := fastRetry
	client := NewClient(ClientConfig{MetaURL: srv.URL, UserID: 1, Retry: &pol})
	if _, err := client.StoreFile("a.bin", []byte("hello")); err == nil {
		t.Fatal("400 response did not surface as an error")
	}
	if attempts != 1 {
		t.Errorf("server saw %d attempts, want 1 (no retries on 4xx)", attempts)
	}
}

// TestRetryBudgetExhaustion: a dead server consumes MaxAttempts, not
// the whole budget, and reports a give-up.
func TestRetryBudgetExhaustion(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		attempts++
		mu.Unlock()
		writeError(w, http.StatusInternalServerError, fmt.Errorf("down"))
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	pol := fastRetry
	client := NewClient(ClientConfig{MetaURL: srv.URL, UserID: 1, Retry: &pol, Metrics: NewClientMetrics(reg)})
	if _, err := client.StoreFile("a.bin", []byte("hello")); err == nil {
		t.Fatal("persistent 500s did not surface as an error")
	}
	if attempts != pol.MaxAttempts {
		t.Errorf("server saw %d attempts, want %d", attempts, pol.MaxAttempts)
	}
	if st := client.cfg.Metrics.Stats(); st.GiveUps != 1 {
		t.Errorf("giveups = %d, want 1", st.GiveUps)
	}
}

// TestDownloadTruncationRefetched: the first chunk GET returns a body
// cut off mid-stream; the client must detect it and re-fetch rather
// than hand back corrupt data.
func TestDownloadTruncationRefetched(t *testing.T) {
	var mu sync.Mutex
	truncated := false
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hit := r.Method == http.MethodGet && isChunkReq(r) && !truncated
			if hit {
				truncated = true
			}
			mu.Unlock()
			if !hit {
				next.ServeHTTP(w, r)
				return
			}
			// Serve the real response but cut the body in half, advertising
			// the full length so the client sees an unexpected EOF.
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(rec.Code)
			w.Write(body[:len(body)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		})
	}
	// The injected truncation targets the per-chunk JSON GET; pin the
	// dialect so the batched binary path does not route around it.
	client, _, cleanup := newFlakyService(t, true, wrap)
	defer cleanup()
	reg := metrics.NewRegistry()
	client = reconfigure(client, func(cfg *ClientConfig) { cfg.Metrics = NewClientMetrics(reg) })

	data := chunkedData(t, 11, ChunkSize+999) // 2 chunks
	res, err := client.StoreFile("v.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.RetrieveFile(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retrieved content differs after truncated download")
	}
	if !truncated {
		t.Fatal("test never injected the truncation")
	}
	if st := client.cfg.Metrics.Stats(); st.Refetches < 1 {
		t.Errorf("refetches = %d, want >= 1", st.Refetches)
	}
}

// TestUploadConnectionResetRecovered: the server kills the connection
// on the first chunk PUT; the idempotent re-PUT must recover.
func TestUploadConnectionResetRecovered(t *testing.T) {
	var mu sync.Mutex
	reset := false
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hit := r.Method == http.MethodPut && isChunkReq(r) && !reset
			if hit {
				reset = true
			}
			mu.Unlock()
			if hit {
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}
	// The injected reset targets the per-chunk JSON PUT; pin the
	// dialect so the batched binary path does not route around it.
	client, store, cleanup := newFlakyService(t, true, wrap)
	defer cleanup()
	reg := metrics.NewRegistry()
	client = reconfigure(client, func(cfg *ClientConfig) { cfg.Metrics = NewClientMetrics(reg) })

	data := chunkedData(t, 12, ChunkSize+1)
	res, err := client.StoreFile("v.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.RetrieveFile(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retrieved content differs after mid-upload reset")
	}
	if st := store.Stats(); st.Chunks != 2 {
		t.Errorf("store has %d chunks, want 2", st.Chunks)
	}
	if st := client.cfg.Metrics.Stats(); st.Retries < 1 || st.RetrySuccess < 1 {
		t.Errorf("stats = %+v, want at least one recovered retry", st)
	}
}

// TestStoreResumeSendsOnlyMissing: when an upload dies mid-file, the
// re-issued operation request must resume from the missing-chunk set —
// chunks that already landed are never re-sent.
func TestStoreResumeSendsOnlyMissing(t *testing.T) {
	var mu sync.Mutex
	putAttempts := 0
	putsByDigest := map[string]int{}
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPut && isChunkReq(r) {
				mu.Lock()
				putAttempts++
				fail := putAttempts == 2
				if !fail {
					putsByDigest[trimChunkPath(r.URL.Path)]++
				}
				mu.Unlock()
				if fail {
					writeError(w, http.StatusServiceUnavailable, fmt.Errorf("upstream flapped"))
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
	// Per-chunk upload accounting only holds on the JSON dialect; the
	// binary path batches PUTs. One attempt per request: the injected
	// 503 immediately fails the chunk PUT, forcing the resume path
	// rather than an in-place retry.
	client, _, cleanup := newFlakyService(t, true, wrap)
	defer cleanup()
	pol := fastRetry
	pol.MaxAttempts = 1
	reg := metrics.NewRegistry()
	client = reconfigure(client, func(cfg *ClientConfig) {
		cfg.Retry = &pol
		cfg.Metrics = NewClientMetrics(reg)
	})

	data := chunkedData(t, 13, 2*ChunkSize+100) // 3 chunks
	sums := SplitSums(data)
	res, err := client.StoreFile("v.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", res.Resumes)
	}
	if res.ChunksSent != 3 {
		t.Errorf("chunks sent = %d, want 3", res.ChunksSent)
	}
	// The first chunk landed before the failure and must not be re-sent
	// by the resumed pass.
	if n := putsByDigest[sums[0].String()]; n != 1 {
		t.Errorf("chunk 0 uploaded %d times, want 1", n)
	}
	got, err := client.RetrieveFile(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retrieved content differs after resumed upload")
	}
	if st := client.cfg.Metrics.Stats(); st.Resumes != 1 {
		t.Errorf("metrics resumes = %d, want 1", st.Resumes)
	}
}

// TestStoreOpReportsMissingAfterPartialUpload exercises the server side
// of resume directly: op re-issue reports exactly the chunks that have
// not arrived, and an op re-issue with nothing missing commits.
func TestStoreOpReportsMissingAfterPartialUpload(t *testing.T) {
	client, _, cleanup := newFlakyService(t, false, nil)
	defer cleanup()

	data := chunkedData(t, 14, 2*ChunkSize+100) // 3 chunks
	sums := SplitSums(data)
	budget := client.newBudget(bg)

	var check StoreCheckResponse
	err := client.postJSON(client.cfg.MetaURL, "/meta/store-check", StoreCheckRequest{
		UserID: client.cfg.UserID, Name: "p.bin", Size: int64(len(data)), FileMD5: SumBytes(data).String(),
	}, &check, budget)
	if err != nil {
		t.Fatal(err)
	}
	strs := make([]string, len(sums))
	for i, s := range sums {
		strs[i] = s.String()
	}
	op := FileOpRequest{UserID: client.cfg.UserID, Name: "p.bin", Size: int64(len(data)), FileMD5: SumBytes(data).String(), ChunkMD5s: strs}

	var resp FileOpResponse
	if err := client.postJSON(check.FrontEnd, "/op/store?url="+check.URL, op, &resp, budget); err != nil {
		t.Fatal(err)
	}
	if !resp.Resumable || len(resp.MissingMD5s) != 3 {
		t.Fatalf("fresh op response = %+v, want 3 missing", resp)
	}

	// Upload only the first chunk, then re-issue the op.
	if err := client.putChunk(check.FrontEnd, check.URL, sums[0], data[:ChunkSize], budget); err != nil {
		t.Fatal(err)
	}
	if err := client.postJSON(check.FrontEnd, "/op/store?url="+check.URL, op, &resp, budget); err != nil {
		t.Fatal(err)
	}
	if len(resp.MissingMD5s) != 2 {
		t.Fatalf("after 1 chunk, missing = %v, want 2 entries", resp.MissingMD5s)
	}
	for _, m := range resp.MissingMD5s {
		if m == sums[0].String() {
			t.Errorf("stored chunk still reported missing")
		}
	}
}

// TestShedderSheds503: beyond the in-flight bound the limiter must
// reject with 503 + Retry-After, and recover once load drains.
func TestShedderSheds503(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	shedder := NewShedder(1)
	srv := httptest.NewServer(shedder.Wrap(slow))
	defer srv.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered // first request occupies the only slot

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("second request status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// Drained: requests are admitted again.
	go func() { <-entered }()
	resp2, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-drain status = %d, want 200", resp2.StatusCode)
	}
	st := shedder.Stats()
	if st.Sheds != 1 || st.Admitted != 2 || st.InFlight != 0 {
		t.Errorf("stats = %+v", st)
	}
}
