package storage

import (
	"bytes"
	"testing"
)

func TestRefCounterAcquireRelease(t *testing.T) {
	rc := NewRefCounter()
	a := SumBytes([]byte("a"))
	b := SumBytes([]byte("b"))
	rc.Acquire([]Sum{a, b})
	rc.Acquire([]Sum{a}) // a shared by two files
	if rc.Refs(a) != 2 || rc.Refs(b) != 1 {
		t.Errorf("refs = %d/%d", rc.Refs(a), rc.Refs(b))
	}
	dead := rc.Release([]Sum{a, b})
	if len(dead) != 1 || dead[0] != b {
		t.Errorf("dead = %v, want just b", dead)
	}
	if rc.Refs(a) != 1 {
		t.Errorf("a refs = %d, want 1", rc.Refs(a))
	}
	dead = rc.Release([]Sum{a})
	if len(dead) != 1 || dead[0] != a {
		t.Errorf("dead = %v, want a", dead)
	}
	if rc.Live() != 0 {
		t.Errorf("live = %d, want 0", rc.Live())
	}
}

func TestRefCounterOverRelease(t *testing.T) {
	rc := NewRefCounter()
	a := SumBytes([]byte("a"))
	if dead := rc.Release([]Sum{a}); dead != nil {
		t.Errorf("releasing unknown chunk returned %v", dead)
	}
	rc.Acquire([]Sum{a})
	rc.Release([]Sum{a})
	if dead := rc.Release([]Sum{a}); dead != nil {
		t.Error("double release must not go negative or return dead chunks")
	}
}

func TestCollectReclaimsFromDeletableStore(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{})
	data := []byte("collectable")
	sum := SumBytes(data)
	if err := ds.Put(sum, data); err != nil {
		t.Fatal(err)
	}
	n, err := Collect(ds, []Sum{sum, SumBytes([]byte("missing"))})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("reclaimed %d, want 1", n)
	}
	if ds.Has(sum) {
		t.Error("chunk survived collection")
	}
}

func TestCollectNoopWithoutDeleter(t *testing.T) {
	c := NewCachedStore(NewMemStore(), 1<<20) // no Delete method
	n, err := Collect(c, []Sum{SumBytes([]byte("x"))})
	if err != nil || n != 0 {
		t.Errorf("n=%d err=%v, want 0/nil", n, err)
	}
}

func TestMetadataUnlinkSharedContent(t *testing.T) {
	meta := NewMetadata("fe")
	sum := SumBytes([]byte("shared photo"))
	chunk := SumBytes([]byte("chunk0"))

	// User 1 uploads; user 2 links the same content via dedup.
	resp, err := meta.StoreCheck(StoreCheckRequest{UserID: 1, Name: "p.jpg", Size: 12, FileMD5: sum.String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.Commit(0, resp.URL, []Sum{chunk}); err != nil {
		t.Fatal(err)
	}
	resp2, err := meta.StoreCheck(StoreCheckRequest{UserID: 2, Name: "q.jpg", Size: 12, FileMD5: sum.String()})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Duplicate {
		t.Fatal("dedup expected")
	}

	// User 1 deletes: content must survive (user 2 still links it).
	chunks, last, err := meta.Unlink(1, resp.URL)
	if err != nil {
		t.Fatal(err)
	}
	if last {
		t.Error("content dropped while user 2 still links it")
	}
	if len(chunks) != 1 || chunks[0] != chunk {
		t.Errorf("chunks = %v", chunks)
	}
	if _, err := meta.Resolve(ResolveRequest{UserID: 2, URL: resp.URL}); err != nil {
		t.Error("user 2 lost access after user 1's delete")
	}

	// User 2 deletes: now it is the last reference.
	_, last, err = meta.Unlink(2, resp.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !last {
		t.Error("last unlink not reported")
	}
	if _, err := meta.Resolve(ResolveRequest{UserID: 2, URL: resp.URL}); err != ErrNotFound {
		t.Errorf("resolve after full delete: err = %v", err)
	}
	// Content hash no longer dedups: a re-upload is fresh.
	resp3, err := meta.StoreCheck(StoreCheckRequest{UserID: 3, Name: "r.jpg", Size: 12, FileMD5: sum.String()})
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Duplicate {
		t.Error("deleted content still dedups")
	}
}

func TestMetadataUnlinkErrors(t *testing.T) {
	meta := NewMetadata()
	if _, _, err := meta.Unlink(1, "/f/x"); err != ErrNotFound {
		t.Errorf("unknown user: err = %v", err)
	}
	resp, err := meta.StoreCheck(StoreCheckRequest{UserID: 1, Name: "a", Size: 1, FileMD5: SumBytes([]byte("a")).String()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := meta.Unlink(1, "/f/other"); err != ErrNotFound {
		t.Errorf("unknown url: err = %v", err)
	}
	_ = resp
}

func TestDeleteFileEndToEnd(t *testing.T) {
	store := NewMemStore()
	meta := NewMetadata("fe")
	rc := NewRefCounter()

	upload := func(user uint64, content []byte, name string) string {
		fileSum := SumBytes(content)
		resp, err := meta.StoreCheck(StoreCheckRequest{UserID: user, Name: name, Size: int64(len(content)), FileMD5: fileSum.String()})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Duplicate {
			return resp.URL
		}
		sums := SplitSums(content)
		for i, s := range sums {
			lo := i * ChunkSize
			hi := lo + ChunkSize
			if hi > len(content) {
				hi = len(content)
			}
			if err := store.Put(s, content[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := meta.Commit(0, resp.URL, sums); err != nil {
			t.Fatal(err)
		}
		rc.Acquire(sums)
		return resp.URL
	}

	contentA := bytes.Repeat([]byte("A"), 1000)
	contentB := bytes.Repeat([]byte("B"), 1000)
	urlA := upload(1, contentA, "a.bin")
	urlShared := upload(1, contentB, "b.bin")
	urlShared2 := upload(2, contentB, "b-copy.bin") // dedup link
	if urlShared != urlShared2 {
		t.Fatal("dedup should reuse the URL")
	}

	// Delete A: its chunk is reclaimed.
	n, err := DeleteFile(meta, rc, store, 1, urlA)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("reclaimed %d chunks for A, want 1", n)
	}
	if store.Has(SplitSums(contentA)[0]) {
		t.Error("A's chunk survived")
	}

	// User 1 deletes shared content: nothing reclaimed (user 2 links).
	n, err = DeleteFile(meta, rc, store, 1, urlShared)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("reclaimed %d chunks for shared content, want 0", n)
	}
	if !store.Has(SplitSums(contentB)[0]) {
		t.Error("shared chunk lost")
	}

	// User 2 deletes: now reclaimed.
	n, err = DeleteFile(meta, rc, store, 2, urlShared)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("reclaimed %d chunks, want 1", n)
	}
	if store.Has(SplitSums(contentB)[0]) {
		t.Error("chunk survived final delete")
	}
}

func TestMemStoreDelete(t *testing.T) {
	m := NewMemStore()
	data := []byte("deletable")
	sum := SumBytes(data)
	if err := m.Put(sum, data); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(sum); err != nil {
		t.Fatal(err)
	}
	if m.Has(sum) {
		t.Error("chunk survived delete")
	}
	if err := m.Delete(sum); err != ErrNotFound {
		t.Errorf("double delete: err = %v", err)
	}
	if st := m.Stats(); st.Chunks != 0 || st.Bytes != 0 {
		t.Errorf("stats after delete: %+v", st)
	}
}
