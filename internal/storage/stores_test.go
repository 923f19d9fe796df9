package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/randx"
)

// Every store implements the one context-first contract.
var (
	_ ChunkStore = (*MemStore)(nil)
	_ ChunkStore = (*DiskStore)(nil)
	_ ChunkStore = (*CachedStore)(nil)
	_ ChunkStore = (*TieredStore)(nil)
	_ ChunkStore = (*ReplicatedStore)(nil)
)

// bg is the context of test calls made outside any request.
var bg = context.Background()

// The TestFileStore* tests hold the file-backed store contract: a store
// kept in a directory round-trips chunks, survives a reopen, dedups
// repeated puts, rejects a wrong digest and serves concurrent duplicate
// writes. DiskStore is the file-backed store they run against.

func TestFileStorePutGetRoundTrip(t *testing.T) {
	fs, _ := newDiskStore(t, DiskStoreOptions{})
	data := []byte("persistent chunk content")
	sum := SumBytes(data)
	if err := fs.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.GetCtx(bg, sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("content mismatch")
	}
	if !fs.Has(sum) {
		t.Error("Has should be true")
	}
	if _, err := fs.GetCtx(bg, SumBytes([]byte("missing"))); err != ErrNotFound {
		t.Errorf("missing: err = %v", err)
	}
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sums []Sum
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("chunk %d", i))
		sum := SumBytes(data)
		if err := fs.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// A second store on the same directory sees everything.
	fs2, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	for i, sum := range sums {
		got, err := fs2.GetCtx(bg, sum)
		if err != nil {
			t.Fatalf("chunk %d lost after reopen: %v", i, err)
		}
		if string(got) != fmt.Sprintf("chunk %d", i) {
			t.Fatalf("chunk %d corrupted", i)
		}
	}
	if st := fs2.Stats(); st.Chunks != 20 {
		t.Errorf("reindexed %d chunks, want 20", st.Chunks)
	}
}

func TestFileStoreDedupAndDelete(t *testing.T) {
	fs, _ := newDiskStore(t, DiskStoreOptions{})
	data := []byte("dup me")
	sum := SumBytes(data)
	for i := 0; i < 3; i++ {
		if err := fs.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
	}
	st := fs.Stats()
	if st.Chunks != 1 || st.DedupHits != 2 {
		t.Errorf("stats = %+v", st)
	}
	if err := fs.Delete(sum); err != nil {
		t.Fatal(err)
	}
	if fs.Has(sum) {
		t.Error("chunk still present after delete")
	}
	if err := fs.Delete(sum); err != ErrNotFound {
		t.Errorf("double delete: err = %v", err)
	}
}

func TestFileStoreRejectsWrongDigest(t *testing.T) {
	fs, _ := newDiskStore(t, DiskStoreOptions{})
	if err := fs.PutCtx(bg, SumBytes([]byte("a")), []byte("b")); err == nil {
		t.Error("mismatched digest accepted")
	}
}

func TestFileStoreConcurrent(t *testing.T) {
	fs, _ := newDiskStore(t, DiskStoreOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := randx.New(uint64(g))
			for i := 0; i < 50; i++ {
				data := []byte(fmt.Sprintf("content-%d", src.Intn(30)))
				sum := SumBytes(data)
				if err := fs.PutCtx(bg, sum, data); err != nil {
					t.Error(err)
					return
				}
				if got, err := fs.GetCtx(bg, sum); err != nil || !bytes.Equal(got, data) {
					t.Errorf("concurrent read failed: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := fs.Stats(); st.Chunks > 30 {
		t.Errorf("%d unique chunks for 30 contents", st.Chunks)
	}
}

func TestCachedStoreHitMiss(t *testing.T) {
	backing := NewMemStore()
	c := NewCachedStore(backing, 1<<20)
	data := bytes.Repeat([]byte("x"), 1000)
	sum := SumBytes(data)
	if err := c.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	// First read: miss (write-around policy), second: hit.
	if _, err := c.GetCtx(bg, sum); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(bg, sum); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.HitRate() != 0.5 || st.ByteHitRate() != 0.5 {
		t.Errorf("rates = %.2f/%.2f", st.HitRate(), st.ByteHitRate())
	}
}

func TestCachedStoreEviction(t *testing.T) {
	backing := NewMemStore()
	c := NewCachedStore(backing, 2500) // fits two 1000-byte chunks
	var sums []Sum
	for i := 0; i < 3; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 1000)
		sum := SumBytes(data)
		if err := c.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
		if _, err := c.GetCtx(bg, sum); err != nil { // admit
			t.Fatal(err)
		}
	}
	st := c.CacheStats()
	if st.Entries != 2 {
		t.Errorf("cache holds %d entries, want 2 after eviction", st.Entries)
	}
	if st.Used > st.Capacity {
		t.Errorf("used %d exceeds capacity %d", st.Used, st.Capacity)
	}
	// The LRU (first) chunk was evicted; the last two are resident.
	c.GetCtx(bg, sums[1])
	c.GetCtx(bg, sums[2])
	after := c.CacheStats()
	if after.Hits-st.Hits != 2 {
		t.Errorf("expected 2 more hits, got %d", after.Hits-st.Hits)
	}
}

func TestCachedStoreOversizedObjectBypasses(t *testing.T) {
	c := NewCachedStore(NewMemStore(), 100)
	data := bytes.Repeat([]byte("y"), 1000)
	sum := SumBytes(data)
	if err := c.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.GetCtx(bg, sum); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Errorf("oversized object should never be cached: %+v", st)
	}
}

func TestCachedStoreZipfWorkloadOffload(t *testing.T) {
	// The paper's what-if: popular downloads dominated by a handful of
	// files => a modest cache absorbs most reads.
	backing := NewMemStore()
	const n = 200
	sums := make([]Sum, n)
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i), byte(i >> 3)}, 4096)
		sums[i] = SumBytes(data)
		if err := backing.PutCtx(bg, sums[i], data); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCachedStore(backing, 20*8192) // caches 10% of objects
	src := randx.New(33)
	z := randx.NewZipf(src, n, 1.1)
	for i := 0; i < 20000; i++ {
		if _, err := c.GetCtx(bg, sums[z.Draw()-1]); err != nil {
			t.Fatal(err)
		}
	}
	if hr := c.CacheStats().HitRate(); hr < 0.5 {
		t.Errorf("Zipf hit rate = %.3f, want > 0.5 with 10%% cache", hr)
	}
}

func TestTieredStoreDemotionPromotion(t *testing.T) {
	clock := time.Date(2015, 8, 3, 0, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }
	ts := NewTieredStore(NewMemStore(), NewMemStore(), 24*time.Hour, now)

	data := []byte("backup photo")
	sum := SumBytes(data)
	if err := ts.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	// Within a day: no demotion.
	clock = clock.Add(12 * time.Hour)
	if n, err := ts.Migrate(); err != nil || n != 0 {
		t.Fatalf("early migrate: n=%d err=%v", n, err)
	}
	// After the idle period: demoted.
	clock = clock.Add(36 * time.Hour)
	n, err := ts.Migrate()
	if err != nil || n != 1 {
		t.Fatalf("migrate: n=%d err=%v", n, err)
	}
	st := ts.TierStats()
	if st.Demotions != 1 {
		t.Errorf("demotions = %d", st.Demotions)
	}
	// Reading a cold chunk promotes it and still returns the content.
	got, err := ts.GetCtx(bg, sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cold read returned wrong content")
	}
	st = ts.TierStats()
	if st.Promotions != 1 || st.ColdReads != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Promoted content serves hot now.
	if _, err := ts.GetCtx(bg, sum); err != nil {
		t.Fatal(err)
	}
	if st := ts.TierStats(); st.HotReads != 1 {
		t.Errorf("hot reads = %d, want 1", st.HotReads)
	}
}

func TestTieredStoreMissingChunk(t *testing.T) {
	ts := NewTieredStore(NewMemStore(), NewMemStore(), time.Hour, nil)
	if _, err := ts.GetCtx(bg, SumBytes([]byte("nope"))); err != ErrNotFound {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestTieredStoreCostAccounting(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	ts := NewTieredStore(NewMemStore(), NewMemStore(), time.Hour, now)

	data := bytes.Repeat([]byte("z"), 1000)
	if err := ts.PutCtx(bg, SumBytes(data), data); err != nil {
		t.Fatal(err)
	}
	ts.AccrueOccupancy(10 * time.Hour) // 10h hot
	clock = clock.Add(10 * time.Hour)
	if _, err := ts.Migrate(); err != nil {
		t.Fatal(err)
	}
	ts.AccrueOccupancy(90 * time.Hour) // 90h cold
	st := ts.TierStats()
	if st.HotByteHours != 10000 {
		t.Errorf("hot byte-hours = %v, want 10000", st.HotByteHours)
	}
	if st.ColdByteHours != 90000 {
		t.Errorf("cold byte-hours = %v, want 90000", st.ColdByteHours)
	}
	// With cold at a fifth of hot price, tiering should cut cost
	// massively for this backup-like (write-once, rarely read) object.
	cost := st.Cost(1.0, 0.2)
	hotOnly := st.HotOnlyCost(1.0)
	if cost >= hotOnly {
		t.Errorf("tiered cost %v not below hot-only %v", cost, hotOnly)
	}
	if saving := 1 - cost/hotOnly; saving < 0.5 {
		t.Errorf("saving = %.2f, want > 0.5 for a cold-dominated object", saving)
	}
}

// flakyTransport fails every request after the first failAfter
// round trips, then works again after Reset.
type flakyTransport struct {
	mu        sync.Mutex
	calls     int
	failAfter int
	broken    bool
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	fail := f.broken || (f.failAfter > 0 && f.calls > f.failAfter)
	if fail {
		f.broken = true
		f.mu.Unlock()
		return nil, fmt.Errorf("flaky: connection reset")
	}
	f.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

func (f *flakyTransport) Reset() {
	f.mu.Lock()
	f.calls = 0
	f.broken = false
	f.failAfter = 0
	f.mu.Unlock()
}

func TestDownloadResume(t *testing.T) {
	client, _, _, _, cleanup := newTestService(t)
	defer cleanup()

	// Store a 5-chunk file.
	src := randx.New(77)
	data := make([]byte, 4*ChunkSize+999)
	for i := range data {
		data[i] = byte(src.Uint64())
	}
	res, err := client.StoreFile("big.bin", data)
	if err != nil {
		t.Fatal(err)
	}

	// Download with a transport that dies mid-transfer.
	flaky := &flakyTransport{}
	dlClient := client.Clone()
	dlClient.HTTP = &http.Client{Transport: flaky}

	dl, err := dlClient.NewDownload(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if dl.Total() != 5 {
		t.Fatalf("chunk manifest has %d entries, want 5", dl.Total())
	}
	flaky.mu.Lock()
	flaky.calls = 0     // NewDownload's metadata round trips don't count
	flaky.failAfter = 2 // allow two chunk fetches, then break
	flaky.mu.Unlock()

	err = dl.Resume()
	if err == nil {
		t.Fatal("expected a mid-download failure")
	}
	if dl.Done() == 0 || dl.Complete() {
		t.Fatalf("done = %d after failure", dl.Done())
	}
	progress := dl.Done()
	if _, err := dl.Bytes(); err == nil {
		t.Fatal("Bytes should refuse an incomplete download")
	}

	// Network recovers; resume must fetch only the remaining chunks.
	flaky.Reset()
	if err := dl.Resume(); err != nil {
		t.Fatal(err)
	}
	if !dl.Complete() {
		t.Fatal("download incomplete after resume")
	}
	got, err := dl.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("resumed content differs")
	}
	if refetched := flaky.calls; refetched > dl.Total()-progress+1 {
		t.Errorf("resume made %d requests for %d missing chunks — refetching completed chunks",
			refetched, dl.Total()-progress)
	}
}

func TestDownloadUnknownURL(t *testing.T) {
	client, _, _, _, cleanup := newTestService(t)
	defer cleanup()
	if _, err := client.NewDownload("/f/doesnotexist/1"); err == nil {
		t.Error("expected error for unknown URL")
	}
}

// TestDownloadResolvesLikeRetrieve: NewDownload takes RetrieveFile's
// path to a file — a comma-separated MetaURL, shard routing, the
// cross-shard scatter for a URL another user stored on the other
// shard, and the shard pin on the retrieval operation — and
// Download.Bytes refuses bytes that do not hash to the file digest.
func TestDownloadResolvesLikeRetrieve(t *testing.T) {
	meta0, meta1 := NewMetadata(), NewMetadata()
	srv0 := httptest.NewServer(meta0.Handler())
	defer srv0.Close()
	srv1 := httptest.NewServer(meta1.Handler())
	defer srv1.Close()
	smap, err := cluster.NewMetaShardMap(1, [][]string{{srv0.URL}, {srv1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	meta0.SetShard(0, smap)
	meta1.SetShard(1, smap)
	store := NewMemStore()
	feSrv := httptest.NewServer(NewFrontEnd(FrontEndConfig{Store: store, Meta: NewShardedRemoteMeta(smap, nil)}).Handler())
	defer feSrv.Close()
	meta0.AddFrontEnd(feSrv.URL)
	meta1.AddFrontEnd(feSrv.URL)

	pol := fastRetry
	owner := &Client{MetaURL: srv1.URL, UserID: shardUser(t, smap, 1, nil), Retry: &pol}
	data := chunkedData(t, 61, 3*ChunkSize+77)
	res, err := owner.StoreFile("shared.bin", data)
	if err != nil {
		t.Fatal(err)
	}

	reader := &Client{MetaURL: srv0.URL + "," + srv1.URL, UserID: shardUser(t, smap, 0, nil), Retry: &pol}
	dl, err := reader.NewDownload(res.URL)
	if err != nil {
		t.Fatalf("NewDownload of a URL stored on the other shard: %v", err)
	}
	if err := dl.Resume(); err != nil {
		t.Fatal(err)
	}
	if got, err := dl.Bytes(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Bytes: %v (equal %v)", err, bytes.Equal(got, data))
	}
	if got, err := reader.RetrieveFile(res.URL); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("RetrieveFile: %v", err)
	}

	// A commit whose chunk list disagrees with its file digest: every
	// chunk verifies, the file does not, and Bytes says so.
	claimed := append([]byte(nil), data...)
	claimed[0] ^= 0xFF
	user := shardUser(t, smap, 1, nil)
	chk, err := meta1.StoreCheckCtx(bg, StoreCheckRequest{UserID: user, Name: "liar.bin", Size: int64(len(data)), FileMD5: SumBytes(claimed).String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := meta1.CommitCtx(bg, 1, chk.URL, SplitSums(data)); err != nil {
		t.Fatal(err)
	}
	dl, err = reader.NewDownload(chk.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := dl.Resume(); err != nil {
		t.Fatal(err)
	}
	if got, err := dl.Bytes(); !errors.Is(err, errFileDigest) || got != nil {
		t.Fatalf("Bytes of a file that fails its digest = %d bytes, %v", len(got), err)
	}
}

func TestFrontEndWithDiskStoreBacking(t *testing.T) {
	// The HTTP front-end works identically over the disk store.
	ds, _ := newDiskStore(t, DiskStoreOptions{})
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{Store: ds, Meta: meta})
	srv := httptest.NewServer(fe.Handler())
	defer srv.Close()
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()
	meta.AddFrontEnd(srv.URL)

	client := &Client{MetaURL: metaSrv.URL, UserID: 9}
	data := bytes.Repeat([]byte("disk-backed"), 100000)
	res, err := client.StoreFile("d.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.RetrieveFile(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("disk-backed round trip failed")
	}
}
