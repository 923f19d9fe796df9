package storage

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mcloud/internal/randx"
	"mcloud/internal/trace"
)

func TestSumRoundTrip(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		s := SumBytes(data)
		parsed, err := ParseSum(s.String())
		return err == nil && parsed == s
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestParseSumErrors(t *testing.T) {
	for _, bad := range []string{"", "zz", "abcd", "0123456789abcdef0123456789abcdef00"} {
		if _, err := ParseSum(bad); err == nil {
			t.Errorf("ParseSum(%q) accepted", bad)
		}
	}
}

func TestSplitSums(t *testing.T) {
	data := make([]byte, ChunkSize+100)
	for i := range data {
		data[i] = byte(i)
	}
	sums := SplitSums(data)
	if len(sums) != 2 {
		t.Fatalf("got %d sums, want 2", len(sums))
	}
	if sums[0] != SumBytes(data[:ChunkSize]) {
		t.Error("first chunk sum wrong")
	}
	if sums[1] != SumBytes(data[ChunkSize:]) {
		t.Error("tail chunk sum wrong")
	}
	if SplitSums(nil) != nil {
		t.Error("empty data should produce no sums")
	}
}

func TestMemStorePutGet(t *testing.T) {
	m := NewMemStore()
	data := []byte("hello chunk")
	sum := SumBytes(data)
	if err := m.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.GetCtx(bg, sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("content mismatch")
	}
	if !m.Has(sum) {
		t.Error("Has should be true")
	}
	if _, err := m.GetCtx(bg, SumBytes([]byte("other"))); err != ErrNotFound {
		t.Errorf("missing chunk: err = %v, want ErrNotFound", err)
	}
}

func TestMemStoreRejectsWrongDigest(t *testing.T) {
	m := NewMemStore()
	if err := m.PutCtx(bg, SumBytes([]byte("a")), []byte("b")); err == nil {
		t.Error("mismatched digest accepted")
	}
}

func TestMemStoreDedup(t *testing.T) {
	m := NewMemStore()
	data := bytes.Repeat([]byte("x"), 1000)
	sum := SumBytes(data)
	for i := 0; i < 5; i++ {
		if err := m.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Chunks != 1 || st.Puts != 5 || st.DedupHits != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes != 1000 || st.BytesStored != 5000 {
		t.Errorf("bytes = %d/%d", st.Bytes, st.BytesStored)
	}
	if r := st.DedupRatio(); r != 0.8 {
		t.Errorf("dedup ratio = %v, want 0.8", r)
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	m := NewMemStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := randx.New(uint64(g))
			for i := 0; i < 200; i++ {
				data := []byte(fmt.Sprintf("chunk-%d", src.Intn(50)))
				sum := SumBytes(data)
				if err := m.PutCtx(bg, sum, data); err != nil {
					t.Error(err)
					return
				}
				if got, err := m.GetCtx(bg, sum); err != nil || !bytes.Equal(got, data) {
					t.Error("concurrent get mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.Chunks > 50 {
		t.Errorf("more unique chunks (%d) than distinct contents (50)", st.Chunks)
	}
}

func TestMetadataDedupFlow(t *testing.T) {
	meta := NewMetadata("http://fe1")
	req := StoreCheckRequest{UserID: 1, Name: "a.jpg", Size: 100, FileMD5: SumBytes([]byte("photo")).String()}
	resp, err := meta.StoreCheckCtx(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Duplicate {
		t.Fatal("first store should not be a duplicate")
	}
	if resp.FrontEnd != "http://fe1" {
		t.Errorf("frontend = %q", resp.FrontEnd)
	}
	// Until commit, a second check is also not a duplicate.
	resp2, err := meta.StoreCheckCtx(bg, StoreCheckRequest{UserID: 2, Name: "b.jpg", Size: 100, FileMD5: req.FileMD5})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Duplicate {
		t.Error("uncommitted content reported as duplicate")
	}
	if err := meta.CommitCtx(bg, 0, resp.URL, []Sum{SumBytes([]byte("photo"))}); err != nil {
		t.Fatal(err)
	}
	resp3, err := meta.StoreCheckCtx(bg, StoreCheckRequest{UserID: 3, Name: "c.jpg", Size: 100, FileMD5: req.FileMD5})
	if err != nil {
		t.Fatal(err)
	}
	if !resp3.Duplicate {
		t.Error("committed content should dedup")
	}
	st := meta.Stats()
	if st.DedupHits != 1 || st.Checks != 3 {
		t.Errorf("stats = %+v", st)
	}
	// User 3 got the file linked without uploading.
	if files := meta.UserFiles(3); len(files) != 1 {
		t.Errorf("user 3 has %d files, want 1", len(files))
	}
}

func TestMetadataResolve(t *testing.T) {
	meta := NewMetadata("http://fe1", "http://fe2")
	sum := SumBytes([]byte("content"))
	resp, err := meta.StoreCheckCtx(bg, StoreCheckRequest{UserID: 1, Name: "f", Size: 7, FileMD5: sum.String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.CommitCtx(bg, 0, resp.URL, []Sum{sum}); err != nil {
		t.Fatal(err)
	}
	res, err := meta.Resolve(ResolveRequest{UserID: 1, URL: resp.URL})
	if err != nil {
		t.Fatal(err)
	}
	if res.FileMD5 != sum.String() || res.Size != 7 {
		t.Errorf("resolve = %+v", res)
	}
	if _, err := meta.Resolve(ResolveRequest{URL: "/f/nope"}); err != ErrNotFound {
		t.Errorf("missing URL: err = %v", err)
	}
}

func TestMetadataCommitUnknownURL(t *testing.T) {
	meta := NewMetadata()
	if err := meta.CommitCtx(bg, 0, "/f/unknown", nil); err != ErrNotFound {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestMetadataRoundRobin(t *testing.T) {
	meta := NewMetadata("a", "b", "c")
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		resp, err := meta.StoreCheckCtx(bg, StoreCheckRequest{
			UserID: 1, Name: "f", Size: 1,
			FileMD5: SumBytes([]byte(fmt.Sprintf("c%d", i))).String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		seen[resp.FrontEnd]++
	}
	if seen["a"] != 3 || seen["b"] != 3 || seen["c"] != 3 {
		t.Errorf("round robin skewed: %v", seen)
	}
}

// newTestService spins up a metadata server and one front-end over
// httptest, returning the client base configuration and the collector.
func newTestService(t *testing.T) (*Client, *Collector, *MemStore, *Metadata, func()) {
	t.Helper()
	store := NewMemStore()
	col := &Collector{}
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{
		Store:         store,
		Meta:          meta,
		Sink:          col,
		UpstreamDelay: func() time.Duration { return 100 * time.Millisecond },
	})
	feSrv := httptest.NewServer(fe.Handler())
	metaSrv := httptest.NewServer(meta.Handler())
	meta.AddFrontEnd(feSrv.URL)
	client := &Client{
		MetaURL:  metaSrv.URL,
		UserID:   42,
		DeviceID: 7,
		Device:   trace.Android,
		SimRTT:   89 * time.Millisecond,
	}
	cleanup := func() {
		feSrv.Close()
		metaSrv.Close()
	}
	return client, col, store, meta, cleanup
}

func TestEndToEndStoreRetrieve(t *testing.T) {
	client, col, store, _, cleanup := newTestService(t)
	defer cleanup()

	src := randx.New(55)
	data := make([]byte, ChunkSize*2+12345) // 3 chunks
	for i := range data {
		data[i] = byte(src.Uint64())
	}

	res, err := client.StoreFile("video.mp4", data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduplicated {
		t.Fatal("fresh content reported deduplicated")
	}
	if res.ChunksSent != 3 || res.BytesSent != int64(len(data)) {
		t.Errorf("sent %d chunks / %d bytes", res.ChunksSent, res.BytesSent)
	}
	if st := store.Stats(); st.Chunks != 3 {
		t.Errorf("store has %d chunks, want 3", st.Chunks)
	}

	got, err := client.RetrieveFile(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retrieved content differs from stored content")
	}
	// A front-end logs a chunk read after its last byte is on the wire,
	// which can be after the client returned with it: closing the servers waits for
	// the handlers.
	cleanup()

	// Log accounting: 1 file-store + 3 chunk-store + 1 file-retrieve +
	// 3 chunk-retrieve.
	logs := col.Logs()
	counts := map[trace.ReqType]int{}
	var chunkBytes int64
	for _, l := range logs {
		counts[l.Type]++
		if l.Type == trace.ChunkStore {
			chunkBytes += l.Bytes
		}
		if l.UserID != 42 || l.DeviceID != 7 || l.Device != trace.Android {
			t.Errorf("log identity wrong: %+v", l)
		}
		if l.RTT != 89*time.Millisecond {
			t.Errorf("log RTT = %v", l.RTT)
		}
		if l.Server != 100*time.Millisecond {
			t.Errorf("log Tsrv = %v", l.Server)
		}
		if l.Proc < l.Server {
			t.Errorf("Proc (%v) below Server (%v)", l.Proc, l.Server)
		}
	}
	if counts[trace.FileStore] != 1 || counts[trace.ChunkStore] != 3 ||
		counts[trace.FileRetrieve] != 1 || counts[trace.ChunkRetrieve] != 3 {
		t.Errorf("log counts = %v", counts)
	}
	if chunkBytes != int64(len(data)) {
		t.Errorf("chunk-store bytes = %d, want %d", chunkBytes, len(data))
	}
}

func TestEndToEndDeduplication(t *testing.T) {
	client, col, store, meta, cleanup := newTestService(t)
	defer cleanup()

	data := bytes.Repeat([]byte("same content "), 1000)
	first, err := client.StoreFile("a.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	if first.Deduplicated {
		t.Fatal("first upload deduplicated")
	}

	// A different user uploading identical content should not move any
	// bytes.
	other := client.Clone()
	other.UserID = 77
	second, err := other.StoreFile("b.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Deduplicated {
		t.Fatal("identical content not deduplicated")
	}
	if second.ChunksSent != 0 {
		t.Errorf("dedup upload sent %d chunks", second.ChunksSent)
	}
	if second.URL != first.URL {
		t.Errorf("dedup URL %q != original %q", second.URL, first.URL)
	}
	if st := store.Stats(); st.Puts != 1 {
		t.Errorf("store saw %d puts, want 1", st.Puts)
	}
	if ms := meta.Stats(); ms.DedupHits != 1 {
		t.Errorf("metadata dedup hits = %d", ms.DedupHits)
	}
	// Both users can retrieve.
	if got, err := other.RetrieveFile(second.URL); err != nil || !bytes.Equal(got, data) {
		t.Fatal("dedup user cannot retrieve content", err)
	}
	_ = col
}

func TestRetrieveMissingFile(t *testing.T) {
	client, _, _, _, cleanup := newTestService(t)
	defer cleanup()
	if _, err := client.RetrieveFile("/f/deadbeef/99"); err == nil {
		t.Error("expected error for unknown URL")
	}
}

func TestProxiedFlagPropagates(t *testing.T) {
	client, col, _, _, cleanup := newTestService(t)
	defer cleanup()
	client.Proxied = true
	if _, err := client.StoreFile("p.bin", []byte("proxied upload")); err != nil {
		t.Fatal(err)
	}
	for _, l := range col.Logs() {
		if !l.Proxied {
			t.Errorf("log not marked proxied: %+v", l)
		}
	}
}

func TestEmptyFileStore(t *testing.T) {
	client, _, _, _, cleanup := newTestService(t)
	defer cleanup()
	res, err := client.StoreFile("empty.txt", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksSent != 0 {
		t.Errorf("empty file sent %d chunks", res.ChunksSent)
	}
	got, err := client.RetrieveFile(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("retrieved %d bytes for empty file", len(got))
	}
}

func TestConcurrentClients(t *testing.T) {
	client, _, store, _, cleanup := newTestService(t)
	defer cleanup()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := client.Clone()
			c.UserID = uint64(100 + g)
			c.DeviceID = uint64(g)
			src := randx.New(uint64(g))
			data := make([]byte, 100*1024+src.Intn(100*1024))
			for i := range data {
				data[i] = byte(src.Uint64())
			}
			res, err := c.StoreFile(fmt.Sprintf("f%d.bin", g), data)
			if err != nil {
				errs <- err
				return
			}
			got, err := c.RetrieveFile(res.URL)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("user %d: content mismatch", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := store.Stats(); st.Chunks != 8 {
		t.Errorf("store has %d chunks, want 8 (one small file each)", st.Chunks)
	}
}

func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewWriterSink(trace.NewWriter(&buf))
	sink.Record(trace.Log{Time: time.Unix(0, 1).UTC(), Type: trace.ChunkStore, Bytes: 5})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	logs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || logs[0].Bytes != 5 {
		t.Errorf("logs = %+v", logs)
	}
}

func TestChunkTooLargeRejected(t *testing.T) {
	store := NewMemStore()
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{Store: store, Meta: meta})
	srv := httptest.NewServer(fe.Handler())
	defer srv.Close()
	meta.AddFrontEnd(srv.URL)

	big := make([]byte, ChunkSize+1)
	sum := SumBytes(big)
	client := &Client{MetaURL: srv.URL}
	if err := client.putChunk(srv.URL, "/f/x/1", sum, big, client.newBudget()); err == nil {
		t.Error("oversized chunk accepted")
	}
}
