package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"mcloud/internal/cluster"
	"mcloud/internal/randx"
)

// Every store implements the one context-first contract.
var (
	_ ChunkStore = (*MemStore)(nil)
	_ ChunkStore = (*DiskStore)(nil)
	_ ChunkStore = (*CachedStore)(nil)
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

// TestDownloadResolvesLikeRetrieve: a download (RetrieveFileCtx) takes
// a comma-separated MetaURL, routes by shard, scatters to the other
// shard for a URL another user stored there, and pins the retrieval
// operation to the shard that answered. It hands back no bytes for a
// commit whose chunk list contradicts its file digest.
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
	owner := NewClient(ClientConfig{MetaURL: srv1.URL, UserID: shardUser(t, smap, 1, nil), Retry: &pol})
	data := chunkedData(t, 61, 3*ChunkSize+77)
	res, err := owner.StoreFileCtx(bg, "shared.bin", data)
	if err != nil {
		t.Fatal(err)
	}

	reader := NewClient(ClientConfig{MetaURL: srv0.URL + "," + srv1.URL, UserID: shardUser(t, smap, 0, nil), Retry: &pol})
	if got, err := reader.RetrieveFileCtx(bg, res.URL); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("retrieve of a URL stored on the other shard: %v (equal %v)", err, bytes.Equal(got, data))
	}

	// A commit whose chunk list disagrees with its file digest: every
	// chunk verifies, the file does not, and no bytes come back.
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
	if got, err := reader.RetrieveFileCtx(bg, chk.URL); !errors.Is(err, errFileDigest) || got != nil {
		t.Fatalf("retrieve of a file that fails its digest = %d bytes, %v", len(got), err)
	}
}

// TestDownloadUnknownURL: a download of a URL no metadata shard knows
// hands back no bytes and ErrNotFound.
func TestDownloadUnknownURL(t *testing.T) {
	client, _, _, _, cleanup := newTestService(t)
	defer cleanup()
	if got, err := client.RetrieveFileCtx(bg, "/f/doesnotexist/1"); !errors.Is(err, ErrNotFound) || got != nil {
		t.Fatalf("retrieve of an unknown URL = %d bytes, %v; want ErrNotFound", len(got), err)
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

	client := NewClient(ClientConfig{MetaURL: metaSrv.URL, UserID: 9})
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
