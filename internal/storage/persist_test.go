package storage

import (
	"encoding/json"
	"testing"
)

// snapshotJSON and restoreJSON take a metadata server's durable state
// through the snapshot codec the WAL checkpoint and the standby reseed
// share: JSON out of snapshotLocked, JSON into restoreLocked.
func snapshotJSON(t *testing.T, m *Metadata) []byte {
	t.Helper()
	m.mu.RLock()
	raw, err := json.Marshal(m.snapshotLocked())
	m.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func restoreJSON(m *Metadata, raw []byte) error {
	var snap metaSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.restoreLocked(snap)
}

// populateMeta puts a few files into a metadata server: one committed,
// one provisional, one shared by two users.
func populateMeta(t *testing.T) (*Metadata, map[string]string) {
	t.Helper()
	m := NewMetadata("http://fe1")
	urls := map[string]string{}

	// Committed file for user 1.
	sumA := SumBytes([]byte("content A"))
	respA, err := m.StoreCheckCtx(bg, StoreCheckRequest{UserID: 1, Name: "a.jpg", Size: 9, FileMD5: sumA.String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CommitCtx(bg, 0, respA.URL, []Sum{SumBytes([]byte("chunkA"))}); err != nil {
		t.Fatal(err)
	}
	urls["a"] = respA.URL

	// Provisional (uncommitted) file for user 2.
	sumB := SumBytes([]byte("content B"))
	respB, err := m.StoreCheckCtx(bg, StoreCheckRequest{UserID: 2, Name: "b.mp4", Size: 9, FileMD5: sumB.String()})
	if err != nil {
		t.Fatal(err)
	}
	urls["b"] = respB.URL

	// User 3 links user 1's committed content via dedup.
	respA2, err := m.StoreCheckCtx(bg, StoreCheckRequest{UserID: 3, Name: "a-copy.jpg", Size: 9, FileMD5: sumA.String()})
	if err != nil {
		t.Fatal(err)
	}
	if !respA2.Duplicate {
		t.Fatal("expected dedup")
	}
	return m, urls
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m, urls := populateMeta(t)

	restored := NewMetadata("http://fe1")
	if err := restoreJSON(restored, snapshotJSON(t, m)); err != nil {
		t.Fatal(err)
	}

	// Committed file resolves for both linked users.
	for _, uid := range []uint64{1, 3} {
		res, err := restored.Resolve(ResolveRequest{UserID: uid, URL: urls["a"]})
		if err != nil {
			t.Fatalf("user %d resolve: %v", uid, err)
		}
		if res.Size != 9 {
			t.Errorf("size = %d", res.Size)
		}
	}

	// Committed content still deduplicates.
	resp, err := restored.StoreCheckCtx(bg, StoreCheckRequest{
		UserID: 9, Name: "again.jpg", Size: 9,
		FileMD5: SumBytes([]byte("content A")).String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate {
		t.Error("committed content lost dedup across restore")
	}

	// Provisional content does NOT dedup (chunks never arrived).
	resp, err = restored.StoreCheckCtx(bg, StoreCheckRequest{
		UserID: 9, Name: "b2.mp4", Size: 9,
		FileMD5: SumBytes([]byte("content B")).String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Duplicate {
		t.Error("uncommitted content dedups after restore")
	}

	// URL sequence continues without collisions.
	if resp.URL == urls["a"] || resp.URL == urls["b"] {
		t.Errorf("fresh URL %q collides with restored one", resp.URL)
	}

	// Unlink semantics survive the restore: users 1, 3 and 9 (who just
	// linked via the dedup check above) release the shared file; only
	// the final release is last.
	if _, last, err := restored.UnlinkCtx(bg, 1, urls["a"]); err != nil || last {
		t.Errorf("first unlink: last=%v err=%v", last, err)
	}
	if _, last, err := restored.UnlinkCtx(bg, 3, urls["a"]); err != nil || last {
		t.Errorf("second unlink: last=%v err=%v", last, err)
	}
	if _, last, err := restored.UnlinkCtx(bg, 9, urls["a"]); err != nil || !last {
		t.Errorf("final unlink: last=%v err=%v", last, err)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	m := NewMetadata()
	if err := restoreJSON(m, []byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if err := restoreJSON(m, []byte(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	if err := restoreJSON(m, []byte(`{"version":1,"users":[{"user_id":1,"urls":["/f/nope"]}]}`)); err == nil {
		t.Error("dangling user link accepted")
	}
}
