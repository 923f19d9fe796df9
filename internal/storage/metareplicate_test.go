package storage

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMetaStandbyReplication: a durable standby pulls the primary's
// WAL stream, converges to identical state, rejects writes with a
// retryable unavailability error, and recovers its replicated state
// from its own WAL after a restart.
func TestMetaStandbyReplication(t *testing.T) {
	primary := openDurableMeta(t, t.TempDir())
	srv := httptest.NewServer(primary.Handler())
	defer srv.Close()

	sdir := t.TempDir()
	standby := openDurableMeta(t, sdir)
	puller := NewMetaStandby(standby, srv.URL, nil, 5*time.Millisecond)
	puller.Start()
	defer puller.Close()

	var urls []string
	for i := 0; i < 40; i++ {
		urls = append(urls, metaUpload(t, primary, 30, i, 1+uint64(i%4)))
	}
	if _, _, err := primary.UnlinkCtx(bg, 1, urls[0]); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "standby catch-up", func() bool { return standby.LastSeq() == primary.LastSeq() })
	requireSameState(t, primary, standby, "replicated state")

	// Writes must bounce with the retryable sentinel.
	data := testChunk(30, 999)
	_, err := standby.StoreCheckCtx(bg, StoreCheckRequest{UserID: 1, Name: "w", Size: 1, FileMD5: SumBytes(data).String()})
	if !IsUnavailable(err) {
		t.Fatalf("standby write: err = %v, want ErrUnavailable", err)
	}
	if err := standby.CommitCtx(bg, 0, urls[1], nil); !IsUnavailable(err) {
		t.Fatalf("standby commit: err = %v, want ErrUnavailable", err)
	}
	// Reads are served from replicated state.
	if _, err := standby.LookupURL(urls[1]); err != nil {
		t.Fatalf("standby read: %v", err)
	}
	st := standby.WALStatus()
	if !st.Standby || !st.Durable || st.Primary != srv.URL {
		t.Fatalf("standby status = %+v", st)
	}

	// Restart the standby: the replicated records came back from its
	// own WAL, and a promoted replica accepts writes.
	puller.Close()
	if err := standby.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	reborn := openDurableMeta(t, sdir)
	requireSameState(t, primary, reborn, "standby restart")
	reborn.Promote()
	if _, err := reborn.StoreCheckCtx(bg, StoreCheckRequest{UserID: 7, Name: "p", Size: 1, FileMD5: SumBytes(data).String()}); err != nil {
		t.Fatalf("promoted standby write: %v", err)
	}
}

// TestMetaStandbySnapshotReseed: a standby whose position predates the
// primary's in-memory tail (here: a primary restarted after a
// checkpoint, so its tail is empty) is reseeded with a full snapshot.
func TestMetaStandbySnapshotReseed(t *testing.T) {
	pdir := t.TempDir()
	primary := openDurableMeta(t, pdir)
	for i := 0; i < 20; i++ {
		metaUpload(t, primary, 31, i, 1)
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := primary.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	primary = openDurableMeta(t, pdir) // tail now empty, lastSeq > 0
	srv := httptest.NewServer(primary.Handler())
	defer srv.Close()

	standby := openDurableMeta(t, t.TempDir())
	puller := NewMetaStandby(standby, srv.URL, nil, 5*time.Millisecond)
	puller.Start()
	defer puller.Close()

	waitFor(t, "snapshot reseed", func() bool {
		return standby.LastSeq() == primary.LastSeq() && puller.resets.Load() > 0
	})
	requireSameState(t, primary, standby, "reseeded state")
	// After the reseed, incremental records flow normally.
	metaUpload(t, primary, 31, 100, 2)
	waitFor(t, "incremental after reseed", func() bool { return standby.LastSeq() == primary.LastSeq() })
	requireSameState(t, primary, standby, "incremental after reseed")
}

// TestMetaPull covers the primary-side batch logic directly: caught-up
// pulls return nothing, tail pulls return contiguous batches honoring
// the limit, and pre-tail positions get a snapshot.
func TestMetaPull(t *testing.T) {
	m := NewMetadata("fe")
	for i := 0; i < 10; i++ {
		metaReserveOnly(t, m, 32, i)
	}
	if resp := m.Pull(MetaPullRequest{After: 10}); len(resp.Records) != 0 || resp.Snapshot != nil || resp.LastSeq != 10 {
		t.Fatalf("caught-up pull = %+v", resp)
	}
	resp := m.Pull(MetaPullRequest{After: 3, Limit: 4})
	if len(resp.Records) != 4 || resp.Records[0].Seq != 4 || resp.Records[3].Seq != 7 {
		t.Fatalf("tail pull = %+v", resp)
	}
	// Simulate a trimmed tail: records 1..5 gone.
	m.mu.Lock()
	m.tail = m.tail[5:]
	m.mu.Unlock()
	resp = m.Pull(MetaPullRequest{After: 2})
	if resp.Snapshot == nil || resp.SnapshotSeq != 10 {
		t.Fatalf("pre-tail pull should reseed, got %+v", resp)
	}
}

// TestApplyReplicatedGap: a non-contiguous batch is rejected so the
// puller re-pulls instead of silently skipping mutations.
func TestApplyReplicatedGap(t *testing.T) {
	src := NewMetadata()
	for i := 0; i < 6; i++ {
		metaReserveOnly(t, src, 33, i)
	}
	src.mu.RLock()
	recs := append([]MetaWALRecord(nil), src.tail...)
	src.mu.RUnlock()

	dst := NewMetadata()
	// Replicated batches only land on standbys; a non-standby must
	// reject them outright (promotion vs. pull-loop race).
	if _, err := dst.ApplyReplicated(recs[:3]); err == nil {
		t.Fatal("ApplyReplicated on a non-standby succeeded")
	}
	dst.SetStandby("src")
	if n, err := dst.ApplyReplicated(recs[:3]); err != nil || n != 3 {
		t.Fatalf("contiguous apply: n=%d err=%v", n, err)
	}
	// A gap (skipping record 4) must abort without applying anything.
	if _, err := dst.ApplyReplicated(recs[4:]); err == nil {
		t.Fatal("gap apply succeeded")
	}
	if dst.LastSeq() != 3 {
		t.Fatalf("lastSeq after gap = %d, want 3", dst.LastSeq())
	}
	// Re-applying an overlapping batch skips the old, applies the new.
	if n, err := dst.ApplyReplicated(recs[1:5]); err != nil || n != 2 {
		t.Fatalf("overlapping apply: n=%d err=%v", n, err)
	}
	if dst.LastSeq() != 5 {
		t.Fatalf("lastSeq after overlap = %d, want 5", dst.LastSeq())
	}
}

// TestMetaTailTrim: the tail buffer stays bounded and contiguous under
// sustained writes.
func TestMetaTailTrim(t *testing.T) {
	m := NewMetadata()
	m.mu.Lock()
	for i := 0; i < metaTailCap+100; i++ {
		rec := MetaWALRecord{
			Op: walOpReserve, User: 1, URL: fmt.Sprintf("/tt/%d", i),
			Name: "t", Size: 1, FileMD5: SumBytes([]byte(fmt.Sprint(i))).String(),
			URLSeq: int64(i + 1),
		}
		if _, err := m.logApplyLocked(&rec); err != nil {
			m.mu.Unlock()
			t.Fatal(err)
		}
	}
	if len(m.tail) > metaTailCap {
		m.mu.Unlock()
		t.Fatalf("tail grew to %d (cap %d)", len(m.tail), metaTailCap)
	}
	for i := 1; i < len(m.tail); i++ {
		if m.tail[i].Seq != m.tail[i-1].Seq+1 {
			m.mu.Unlock()
			t.Fatalf("tail not contiguous at %d: %d then %d", i, m.tail[i-1].Seq, m.tail[i].Seq)
		}
	}
	if m.tail[len(m.tail)-1].Seq != m.lastSeq {
		m.mu.Unlock()
		t.Fatal("tail does not end at lastSeq")
	}
	m.mu.Unlock()
}
