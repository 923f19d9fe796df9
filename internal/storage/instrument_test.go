package storage

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcloud/internal/metrics"
	"mcloud/internal/trace"
)

// TestInstrumentedServiceExposition drives a full store/retrieve
// round trip through an instrumented front-end + metadata server over
// real HTTP, scrapes the ops listener, and asserts the exposition
// parses and carries the expected front-end series.
func TestInstrumentedServiceExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	store := NewMemStore()
	store.Instrument(reg)
	cached := NewCachedStore(store, 1<<20)
	cached.Instrument(reg)
	meta := NewMetadata()
	meta.Instrument(reg)
	fem := NewFrontEndMetrics(reg)

	fe := NewFrontEnd(FrontEndConfig{Store: cached, Meta: meta, Sink: &Collector{}, Metrics: fem})
	feSrv := httptest.NewServer(fe.Handler())
	defer feSrv.Close()
	meta.AddFrontEnd(feSrv.URL)
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()

	client := &Client{
		MetaURL: metaSrv.URL, UserID: 7, DeviceID: 1, Device: trace.IOS,
	}
	data := make([]byte, ChunkSize+ChunkSize/2) // 2 chunks
	for i := range data {
		data[i] = byte(i)
	}
	res, err := client.StoreFile("a.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	// Retrieve twice: the second read must hit the LRU cache.
	for i := 0; i < 2; i++ {
		got, err := client.RetrieveFile(res.URL)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(data) {
			t.Fatalf("retrieved %d bytes, want %d", len(got), len(data))
		}
	}
	// A front-end counts a chunk read after its last byte is on the
	// wire, which can be after the client returned with it: Close waits
	// for the handlers.
	feSrv.Close()

	health := &metrics.Health{}
	health.SetReady(true)
	ops := httptest.NewServer(metrics.OpsMux(reg, health))
	defer ops.Close()
	resp, err := ops.Client().Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	vals, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	expect := map[string]float64{
		metrics.Key("mcs_frontend_requests_total", "op", "file-store"):                   1,
		metrics.Key("mcs_frontend_requests_total", "op", "file-retrieve"):                2,
		metrics.Key("mcs_frontend_requests_total", "op", "chunk-store"):                  2,
		metrics.Key("mcs_frontend_requests_total", "op", "chunk-retrieve"):               4,
		metrics.Key("mcs_frontend_bytes_total", "dir", "in"):                             float64(len(data)),
		metrics.Key("mcs_frontend_bytes_total", "dir", "out"):                            2 * float64(len(data)),
		metrics.Key("mcs_frontend_pending_uploads"):                                      0,
		metrics.Key("mcs_frontend_chunk_seconds_count", "dir", "store", "device", "ios"): 2,
		metrics.Key("mcs_frontend_chunk_seconds_count", "dir", "store", "device", "all"): 2,
		metrics.Key("mcs_store_chunks"):                                                  2,
		metrics.Key("mcs_store_puts_total"):                                              2,
		metrics.Key("mcs_meta_files", "shard", "0"):                                      1,
		metrics.Key("mcs_meta_users", "shard", "0"):                                      1,
		metrics.Key("mcs_meta_checks_total", "shard", "0"):                               1,
		metrics.Key("mcs_cache_hits_total"):                                              2,
		metrics.Key("mcs_cache_misses_total"):                                            2,
	}
	for k, want := range expect {
		got, ok := vals[k]
		if !ok {
			t.Errorf("missing series %s", k)
			continue
		}
		if got != want {
			t.Errorf("%s = %g, want %g", k, got, want)
		}
	}
	if n := vals[metrics.Key("mcs_meta_op_seconds_count", "op", "store_check", "shard", "0")]; n != 1 {
		t.Errorf("store_check count = %g, want 1", n)
	}
	if p50 := vals[metrics.Key("mcs_frontend_chunk_seconds", "dir", "store", "device", "ios", "quantile", "0.5")]; !(p50 > 0) {
		t.Errorf("chunk-store p50 = %g, want > 0", p50)
	}
}

// TestFrontEndErrorCounters checks errors are attributed to the right
// operation.
func TestFrontEndErrorCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	fem := NewFrontEndMetrics(reg)
	fe := NewFrontEnd(FrontEndConfig{Store: NewMemStore(), Meta: NewMetadata(), Metrics: fem})
	srv := httptest.NewServer(fe.Handler())
	defer srv.Close()

	// Bad chunk digest on GET -> chunk-retrieve error.
	resp, err := srv.Client().Get(srv.URL + "/chunk/nothex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Malformed JSON -> file-store error.
	resp, err = srv.Client().Post(srv.URL+"/op/store?url=/f/x", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := fem.errors[trace.ChunkRetrieve].Value(); got != 1 {
		t.Errorf("chunk-retrieve errors = %d, want 1", got)
	}
	if got := fem.errors[trace.FileStore].Value(); got != 1 {
		t.Errorf("file-store errors = %d, want 1", got)
	}
	if got := fem.requests[trace.ChunkRetrieve].Value(); got != 0 {
		t.Errorf("failed requests must not count as served, got %d", got)
	}
}

// TestGCMetrics checks the sweep series advance on observed deletes.
func TestGCMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	gm := NewGCMetrics(reg)
	store := NewMemStore()
	meta := NewMetadata("http://fe")
	rc := NewRefCounter()

	data := []byte("gc instrumentation test chunk")
	sum := SumBytes(data)
	check, err := meta.StoreCheckCtx(bg, StoreCheckRequest{UserID: 1, Name: "x", Size: int64(len(data)), FileMD5: sum.String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	if err := meta.CommitCtx(bg, 0, check.URL, []Sum{sum}); err != nil {
		t.Fatal(err)
	}
	rc.Acquire([]Sum{sum})

	n, err := DeleteFile(bg, gm, meta, rc, store, 1, check.URL)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reclaimed %d chunks, want 1", n)
	}
	if got := gm.Deletes.Value(); got != 1 {
		t.Errorf("deletes = %d, want 1", got)
	}
	if got := gm.Reclaimed.Value(); got != 1 {
		t.Errorf("reclaimed = %d, want 1", got)
	}
	if got := gm.Sweep.Count(); got != 1 {
		t.Errorf("sweep observations = %d, want 1", got)
	}
	if store.Has(sum) {
		t.Error("chunk should be collected")
	}
}

// TestWriterSinkLatchesError proves a failing log writer surfaces the
// first error at Flush instead of silently dropping records.
func TestWriterSinkLatchesError(t *testing.T) {
	s := NewWriterSink(trace.NewWriter(failWriter{}))
	// The trace writer buffers 64 KB; write well past that so the
	// failing backend surfaces mid-run, then keep recording.
	for i := 0; i < 5000; i++ {
		s.Record(trace.Log{Time: time.Unix(int64(i), 0)})
	}
	err := s.Flush()
	if err == nil {
		t.Fatal("Flush after failed writes should report an error")
	}
	if !strings.Contains(err.Error(), "log write failed") {
		t.Errorf("error should identify the latched write failure, got: %v", err)
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Errorf("error should wrap the root cause, got: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, errTestWrite
}

var errTestWrite = &testWriteError{}

type testWriteError struct{}

func (*testWriteError) Error() string { return "disk full" }
