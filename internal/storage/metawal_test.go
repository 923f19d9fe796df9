package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func openDurableMeta(t *testing.T, dir string) *Metadata {
	t.Helper()
	m, err := OpenDurableMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.WAL().Close() })
	return m
}

// metaUpload runs the full store handshake for deterministic content
// derived from (seed, i) and returns the assigned URL.
func metaUpload(t *testing.T, m *Metadata, seed int64, i int, user uint64) string {
	t.Helper()
	data := testChunk(seed, i)
	sum := SumBytes(data)
	resp, err := m.StoreCheckCtx(bg, StoreCheckRequest{
		UserID: user, Name: fmt.Sprintf("f-%d", i), Size: int64(len(data)), FileMD5: sum.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate {
		if err := m.CommitCtx(bg, 0, resp.URL, SplitSums(data)); err != nil {
			t.Fatal(err)
		}
	}
	return resp.URL
}

// canonSnapshot builds a canonicalized (sorted) snapshot for deep
// state comparison across replay paths and replicas.
func canonSnapshot(m *Metadata) metaSnapshot {
	m.mu.RLock()
	snap := m.snapshotLocked()
	m.mu.RUnlock()
	sort.Slice(snap.Files, func(i, j int) bool { return snap.Files[i].URL < snap.Files[j].URL })
	sort.Slice(snap.Users, func(i, j int) bool { return snap.Users[i].UserID < snap.Users[j].UserID })
	for i := range snap.Users {
		sort.Strings(snap.Users[i].URLs)
	}
	return snap
}

func requireSameState(t *testing.T, a, b *Metadata, label string) {
	t.Helper()
	sa, sb := canonSnapshot(a), canonSnapshot(b)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: states differ:\n a=%+v\n b=%+v", label, sa, sb)
	}
}

func TestMetaWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := openDurableMeta(t, dir)
	var urls []string
	for i := 0; i < 10; i++ {
		urls = append(urls, metaUpload(t, m, 20, i, 1+uint64(i%3)))
	}
	// A dedup hit from another user and an unlink, so replay covers
	// every record type.
	dup := testChunk(20, 3)
	resp, err := m.StoreCheckCtx(bg, StoreCheckRequest{UserID: 9, Name: "dup", Size: int64(len(dup)), FileMD5: SumBytes(dup).String()})
	if err != nil || !resp.Duplicate {
		t.Fatalf("dedup hit: %v %+v", err, resp)
	}
	if _, _, err := m.UnlinkCtx(bg, 1, urls[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	m2 := openDurableMeta(t, dir)
	requireSameState(t, m, m2, "pure WAL replay")
	if m2.LastSeq() != m.LastSeq() {
		t.Fatalf("lastSeq = %d, want %d", m2.LastSeq(), m.LastSeq())
	}
	// New uploads continue the URL sequence instead of reusing it.
	u := metaUpload(t, m2, 20, 100, 5)
	if _, err := m2.LookupURL(u); err != nil {
		t.Fatal(err)
	}
	for _, prev := range urls {
		if u == prev {
			t.Fatalf("URL %q reused after recovery", u)
		}
	}
}

// TestMetaWALCheckpointEquivalence: the same operation stream must
// produce identical recovered state whether it is replayed purely from
// the WAL or restored from interleaved checkpoints plus the WAL tail.
func TestMetaWALCheckpointEquivalence(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, b := openDurableMeta(t, dirA), openDurableMeta(t, dirB)

	apply := func(m *Metadata, checkpointEvery int) {
		var urls []string
		for i := 0; i < 30; i++ {
			urls = append(urls, metaUpload(t, m, 21, i%20, 1+uint64(i%4))) // i%20 forces some dedup hits
			if i%7 == 3 && len(urls) > 2 {
				m.UnlinkCtx(bg, 1+uint64(i%4), urls[len(urls)-3]) // some fail with ErrNotFound; fine
			}
			if checkpointEvery > 0 && i%checkpointEvery == checkpointEvery-1 {
				if err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	apply(a, 5)
	apply(b, 0)
	requireSameState(t, a, b, "live states (checkpointed vs not)")

	if err := a.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	ra, rb := openDurableMeta(t, dirA), openDurableMeta(t, dirB)
	requireSameState(t, ra, a, "checkpoint+tail recovery")
	requireSameState(t, rb, b, "pure replay recovery")
	requireSameState(t, ra, rb, "recovered states")

	if st := ra.WAL().Stats(); st.CheckpointSeq == 0 {
		t.Fatal("checkpointed store recovered with CheckpointSeq 0")
	}
}

// TestMetaWALCheckpointPrunes: checkpoints bound the log — sealed
// segments covered by the checkpoint are deleted.
func TestMetaWALCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	m := openDurableMeta(t, dir)
	for i := 0; i < 20; i++ {
		metaUpload(t, m, 22, i, 1)
		if i%5 == 4 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.mwal"))
	if len(segs) != 1 {
		t.Fatalf("%d segments on disk after checkpoints, want 1 (the active)", len(segs))
	}
	st := m.WAL().Stats()
	if st.Checkpoints != 4 || st.CheckpointSeq != m.LastSeq() {
		t.Fatalf("stats = %+v, want 4 checkpoints at seq %d", st, m.LastSeq())
	}
	// Nothing new since the checkpoint: the next one is a no-op.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := m.WAL().Stats().Checkpoints; got != 4 {
		t.Fatalf("no-op checkpoint ran anyway (%d)", got)
	}
}

// metaReserveOnly appends reserve records (one WAL record per call)
// and returns the URL, for byte-precise torn-tail tables.
func metaReserveOnly(t *testing.T, m *Metadata, seed int64, i int) string {
	t.Helper()
	data := testChunk(seed, i)
	sum := SumBytes(data)
	resp, err := m.StoreCheckCtx(bg, StoreCheckRequest{
		UserID: 1, Name: fmt.Sprintf("r-%d", i), Size: int64(len(data)), FileMD5: sum.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Duplicate {
		t.Fatalf("unexpected dedup hit at %d", i)
	}
	return resp.URL
}

// TestMetaWALTornTail: the WAL's final segment is truncated at
// assorted offsets; the reopened server must hold exactly the records
// that fully survived.
func TestMetaWALTornTail(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	m, err := OpenDurableMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	var ends []int64
	for i := 0; i < n; i++ {
		urls = append(urls, metaReserveOnly(t, m, 23, i))
		ends = append(ends, m.WAL().Stats().BytesLogged)
	}
	if err := m.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, walSegName(1))
	if info, err := os.Stat(seg); err != nil || info.Size() != ends[n-1] {
		t.Fatalf("segment size = %v/%v, want %d", info, err, ends[n-1])
	}

	cases := []struct {
		name string
		cut  int64
	}{
		{"one-byte-short", ends[n-1] - 1},
		{"mid-payload", ends[n-2] + walHeaderSize + 9},
		{"mid-header", ends[n-2] + walHeaderSize/2},
		{"exact-boundary", ends[n-2]},
		{"two-records-torn", ends[n-3] + 3},
		{"header-only", ends[n-3] + walHeaderSize},
		{"empty-file", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cdir := t.TempDir()
			copyFile(t, seg, filepath.Join(cdir, walSegName(1)))
			if err := os.Truncate(filepath.Join(cdir, walSegName(1)), tc.cut); err != nil {
				t.Fatal(err)
			}
			rm := openDurableMeta(t, cdir)
			for i, url := range urls {
				_, err := rm.LookupURL(url)
				if ends[i] <= tc.cut {
					if err != nil {
						t.Fatalf("surviving record %d (%s): %v", i, url, err)
					}
				} else if err != ErrNotFound {
					t.Fatalf("torn record %d (%s): err = %v, want ErrNotFound", i, url, err)
				}
			}
			onBoundary := tc.cut == 0
			for _, e := range ends {
				onBoundary = onBoundary || tc.cut == e
			}
			if got := rm.WAL().Stats().Truncated; onBoundary && got != 0 {
				t.Fatalf("clean-boundary cut reported %d torn bytes", got)
			} else if !onBoundary && got == 0 {
				t.Fatal("truncated bytes not recorded")
			}
			// Appends resume cleanly on the healed tail.
			u := metaReserveOnly(t, rm, 23, 1000)
			if _, err := rm.LookupURL(u); err != nil {
				t.Fatalf("post-recovery reserve unreadable: %v", err)
			}
		})
	}
}

// TestMetaWALTornTailFuzzSeed drives the same invariant from a seeded
// stream of random truncation points.
func TestMetaWALTornTailFuzzSeed(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	m, err := OpenDurableMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	var ends []int64
	for i := 0; i < n; i++ {
		urls = append(urls, metaReserveOnly(t, m, 24, i))
		ends = append(ends, m.WAL().Stats().BytesLogged)
	}
	if err := m.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, walSegName(1))

	r := rand.New(rand.NewSource(0x3E7A))
	for round := 0; round < 25; round++ {
		cut := r.Int63n(ends[n-1] + 1)
		cdir := t.TempDir()
		copyFile(t, seg, filepath.Join(cdir, walSegName(1)))
		if err := os.Truncate(filepath.Join(cdir, walSegName(1)), cut); err != nil {
			t.Fatal(err)
		}
		rm, err := OpenDurableMetadata(cdir)
		if err != nil {
			t.Fatalf("round %d (cut %d): %v", round, cut, err)
		}
		for i, url := range urls {
			_, err := rm.LookupURL(url)
			if ends[i] <= cut {
				if err != nil {
					t.Fatalf("round %d (cut %d): surviving record %d: %v", round, cut, i, err)
				}
			} else if err != ErrNotFound {
				t.Fatalf("round %d (cut %d): torn record %d: err = %v", round, cut, i, err)
			}
		}
		rm.WAL().Close()
	}
}

// TestMetaWALCorruptSealedSegment: corruption outside the final
// segment is unrecoverable damage and must refuse to open, not
// silently drop records — whether the record's JSON breaks or, still
// valid, only its CRC tells.
func TestMetaWALCorruptSealedSegment(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(seg []byte) int // returns the offset it changed, or -1
	}{
		{"json", func(seg []byte) int {
			seg[walHeaderSize+2] = 0xFF
			return walHeaderSize + 2
		}},
		{"crc-only", func(seg []byte) int {
			// The first record's name "r-0" becomes "r-9".
			off := bytes.Index(seg, []byte(`"name":"r-0"`))
			if off < 0 {
				return -1
			}
			off += len(`"name":"r-`)
			seg[off] = '9'
			return off
		}},
		// nil removes the sealed segment: the final one scans clean,
		// and the replay then finds the gap.
		{"missing", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := OpenDurableMetadata(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				metaReserveOnly(t, m, 25, i)
			}
			// Rotate without checkpointing so the sealed segment stays.
			m.mu.Lock()
			m.wal.mu.Lock()
			rerr := m.wal.rotateLocked(m.lastSeq)
			m.wal.mu.Unlock()
			m.mu.Unlock()
			if rerr != nil {
				t.Fatal(rerr)
			}
			metaReserveOnly(t, m, 25, 100)
			if err := m.WAL().Close(); err != nil {
				t.Fatal(err)
			}

			seg1 := filepath.Join(dir, walSegName(1))
			if tc.corrupt == nil {
				if err := os.Remove(seg1); err != nil {
					t.Fatal(err)
				}
			} else {
				seg, err := os.ReadFile(seg1)
				if err != nil {
					t.Fatal(err)
				}
				off := tc.corrupt(seg)
				if off < 0 {
					t.Fatal("no record to corrupt")
				}
				f, err := os.OpenFile(seg1, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(seg[off:off+1], int64(off)); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			checkFailedOpensCloseFiles(t, func() error {
				m2, err := OpenDurableMetadata(dir)
				if err == nil {
					m2.WAL().Close()
				}
				return err
			})
		})
	}
}

// TestMetaWALVerbatimFormat pins the WAL's on-disk format: the first
// segment holds exactly the reference framing — seq|len|crc32 header,
// then the record's JSON — of every record logged, in order.
func TestMetaWALVerbatimFormat(t *testing.T) {
	dir := t.TempDir()
	m := openDurableMeta(t, dir)
	var want []byte
	m.mu.Lock()
	for i := 0; i < 3; i++ {
		rec := MetaWALRecord{
			Op: walOpReserve, User: 7, URL: fmt.Sprintf("/v/%d", i),
			Name: "v", Size: int64(i + 1), FileMD5: SumBytes([]byte{byte(i)}).String(),
			URLSeq: int64(i + 1),
		}
		if _, err := m.logApplyLocked(&rec); err != nil {
			m.mu.Unlock()
			t.Fatal(err)
		}
		payload, err := json.Marshal(&rec)
		if err != nil {
			m.mu.Unlock()
			t.Fatal(err)
		}
		hdr := make([]byte, walHeaderSize)
		encodeWALHeader(hdr, rec.Seq, payload)
		want = append(append(want, hdr...), payload...)
	}
	m.mu.Unlock()
	if err := m.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, walSegName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment is %d bytes, reference encoding %d; first difference at %d",
			len(got), len(want), firstDiff(got, want))
	}
}

// TestMetaSIGKILLRecovery is the metadata counterpart of the DiskStore
// crash test: a child process runs the store-check/commit handshake in
// a loop (checkpointing periodically so rotation is live during the
// kill), acknowledging each file only after Commit's fsync cover
// returns; the parent SIGKILLs it mid-stream, reopens the directory,
// and every acknowledged commit must be present and intact.
func TestMetaSIGKILLRecovery(t *testing.T) {
	const seed = 0x6E7A
	if dir := os.Getenv("MCS_META_CRASH_DIR"); dir != "" {
		metaCrashChild(dir, seed)
		return
	}
	if testing.Short() {
		t.Skip("subprocess test")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestMetaSIGKILLRecovery$")
	cmd.Env = append(os.Environ(), "MCS_META_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	acked := -1
	urls := map[int]string{}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		var i int
		var url string
		if _, err := fmt.Sscanf(sc.Text(), "acked %d %s", &i, &url); err == nil {
			acked = i
			urls[i] = url
			if i >= 60 {
				break // past at least two checkpoints; kill mid-stream
			}
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if acked < 0 {
		t.Fatal("child acknowledged no commits before dying")
	}

	m, err := OpenDurableMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.WAL().Close()
	lost, corrupted := 0, 0
	for i := 0; i <= acked; i++ {
		data := testChunk(seed, i)
		sum := SumBytes(data)
		f, err := m.LookupCtx(bg, 0, sum) // committed catalog: dedup must see it
		if err != nil {
			lost++
			continue
		}
		want := SplitSums(data)
		if f.URL != urls[i] || f.Size != int64(len(data)) || !reflect.DeepEqual(f.ChunkMD5s, want) {
			corrupted++
		}
	}
	if lost != 0 || corrupted != 0 {
		t.Fatalf("of %d acknowledged commits: %d lost, %d corrupted", acked+1, lost, corrupted)
	}
	st := m.WAL().Stats()
	t.Logf("meta SIGKILL recovery: %d acknowledged commits, 0 lost, 0 corrupted (recovery %v, %d torn bytes truncated, checkpoint seq %d)",
		acked+1, st.Recovery, st.Truncated, st.CheckpointSeq)
}

// metaCrashChild is the SIGKILL victim: it uploads deterministic files
// forever, acknowledging each only once the commit is durable.
func metaCrashChild(dir string, seed int64) {
	m, err := OpenDurableMetadata(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		data := testChunk(seed, i)
		sum := SumBytes(data)
		resp, err := m.StoreCheckCtx(bg, StoreCheckRequest{
			UserID: 1 + uint64(i%3), Name: fmt.Sprintf("crash-%d", i),
			Size: int64(len(data)), FileMD5: sum.String(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := m.CommitCtx(bg, 0, resp.URL, SplitSums(data)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("acked %d %s\n", i, resp.URL)
		if i%25 == 24 {
			if err := m.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// TestMetaWALConcurrent hammers the mutators from several goroutines;
// group commit must keep every acked mutation and the -race detector
// quiet.
func TestMetaWALConcurrent(t *testing.T) {
	dir := t.TempDir()
	m := openDurableMeta(t, dir)
	const workers, per = 6, 20
	errc := make(chan error, workers)
	urlc := make(chan string, workers*per)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				data := testChunk(int64(26+w), i)
				sum := SumBytes(data)
				resp, err := m.StoreCheckCtx(bg, StoreCheckRequest{
					UserID: uint64(w + 1), Name: fmt.Sprintf("c-%d-%d", w, i),
					Size: int64(len(data)), FileMD5: sum.String(),
				})
				if err != nil {
					errc <- err
					return
				}
				if !resp.Duplicate {
					if err := m.CommitCtx(bg, 0, resp.URL, SplitSums(data)); err != nil {
						errc <- err
						return
					}
				}
				urlc <- resp.URL
				if i%10 == 9 {
					if err := m.Checkpoint(); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	close(urlc)
	var urls []string
	for u := range urlc {
		urls = append(urls, u)
	}
	if err := m.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	m2 := openDurableMeta(t, dir)
	requireSameState(t, m, m2, "recovery after concurrent load")
	for _, u := range urls {
		if _, err := m2.LookupURL(u); err != nil {
			t.Fatalf("acked URL %s lost: %v", u, err)
		}
	}
	st := m2.WAL().Stats()
	if st.Appends != 0 {
		t.Fatalf("fresh reopen counted %d appends", st.Appends)
	}
}

// TestMetaWALGroupCommit: one fsync covers every record appended
// before it — the LSN-cover semantics behind group commit.
func TestMetaWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	m := openDurableMeta(t, dir)
	w := m.WAL()

	const n = 20
	var last int64
	m.mu.Lock()
	for i := 0; i < n; i++ {
		rec := MetaWALRecord{
			Op: walOpReserve, User: 1, URL: fmt.Sprintf("/t/%d", i),
			Name: "t", Size: 1, FileMD5: SumBytes([]byte{byte(i)}).String(),
			URLSeq: int64(i + 1),
		}
		lsn, err := m.logApplyLocked(&rec)
		if err != nil {
			m.mu.Unlock()
			t.Fatal(err)
		}
		last = lsn
	}
	m.mu.Unlock()

	before := w.Stats().Fsyncs
	if err := w.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	after := w.Stats().Fsyncs
	if after-before != 1 {
		t.Fatalf("%d fsyncs to cover %d appends, want 1", after-before, n)
	}
	// Earlier LSNs are now covered: no further fsyncs.
	if err := w.WaitDurable(last - 100); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Fsyncs; got != after {
		t.Fatalf("covered wait issued an fsync (%d -> %d)", after, got)
	}
	if st := w.Stats(); st.Appends != n {
		t.Fatalf("appends = %d, want %d", st.Appends, n)
	}
}

// TestMetaWALCheckpointInterleaving forces the interleaving two
// concurrent checkpoints used to allow: A rotates at seq a and stalls
// before writing its snapshot; more records are acked; B checkpoints
// at b > a. B must not overtake A — had it pruned the segment holding
// a+1..b, A's older snapshot would land over B's and those records
// would be on no disk. Every acked URL must survive a reopen.
func TestMetaWALCheckpointInterleaving(t *testing.T) {
	dir := t.TempDir()
	m := openDurableMeta(t, dir)
	var urls []string
	for i := 0; i < 4; i++ {
		urls = append(urls, metaUpload(t, m, 31, i, 1))
	}
	stalled, release := make(chan struct{}), make(chan struct{})
	var once bool
	checkpointStall = func() {
		if !once { // only A stalls
			once = true
			close(stalled)
			<-release
		}
	}
	defer func() { checkpointStall = nil }()
	aDone := make(chan error, 1)
	go func() { aDone <- m.Checkpoint() }()
	<-stalled
	for i := 4; i < 8; i++ {
		urls = append(urls, metaUpload(t, m, 31, i, 1))
	}
	bDone := make(chan error, 1)
	go func() { bDone <- m.Checkpoint() }()
	select {
	case err := <-bDone:
		// B ran whole while A was stalled: A now lands over it.
		close(release)
		if aerr := <-aDone; aerr != nil {
			t.Fatal(aerr)
		}
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(200 * time.Millisecond):
		close(release) // B is waiting for A, as it must
		if err := <-aDone; err != nil {
			t.Fatal(err)
		}
		if err := <-bDone; err != nil {
			t.Fatal(err)
		}
	}
	if st := m.WAL().Stats(); st.CheckpointSeq != m.LastSeq() {
		t.Fatalf("checkpoint seq %d after both checkpoints, want the newest, %d", st.CheckpointSeq, m.LastSeq())
	}
	if err := m.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenDurableMetadata(dir)
	if err != nil {
		t.Fatalf("reopen after interleaved checkpoints: %v", err)
	}
	defer m2.WAL().Close()
	for _, u := range urls {
		if _, err := m2.LookupURL(u); err != nil {
			t.Fatalf("acked URL %s lost: %v", u, err)
		}
	}
	requireSameState(t, m, m2, "recovery after interleaved checkpoints")
}

// TestMetaWALReplayGapRefused: a WAL whose records after the checkpoint
// skip a range — the segment that held them is gone — refuses to open
// and names the missing range, instead of serving a catalog without
// them. The damaged directory is the one the checkpoint race left: an
// older checkpoint over a newer one that had pruned the records in
// between.
func TestMetaWALReplayGapRefused(t *testing.T) {
	dir := t.TempDir()
	m := openDurableMeta(t, dir)
	for i := 0; i < 3; i++ {
		metaUpload(t, m, 32, i, 1)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	a := m.LastSeq()
	for i := 3; i < 6; i++ {
		metaUpload(t, m, 32, i, 1)
	}
	if err := m.Checkpoint(); err != nil { // prunes the segment holding a+1..b
		t.Fatal(err)
	}
	b := m.LastSeq()
	metaUpload(t, m, 32, 6, 1)
	if err := m.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurableMetadata(dir)
	if err == nil {
		t.Fatal("a WAL missing records after its checkpoint opened")
	}
	if want := fmt.Sprintf("records %d..%d missing", a+1, b); !strings.Contains(err.Error(), want) {
		t.Fatalf("open error %q does not name the missing range %q", err, want)
	}
}

// TestMetaWALReseedCheckpoints: a reseed replaces the catalog with a
// primary's snapshot and checkpoints it even when the snapshot's
// sequence equals the local checkpoint's — a deposed primary's forked
// history can end at the very sequence the new primary's does. The
// reopened node must come back with the primary's catalog, not its own
// discarded one.
func TestMetaWALReseedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	m := openDurableMeta(t, dir)
	primary := NewMetadata()
	for i := 0; i < 3; i++ {
		metaUpload(t, m, 33, i, 1)
		metaUpload(t, primary, 34, i, 2)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seq := primary.LastSeq()
	if seq != m.LastSeq() {
		t.Fatalf("histories end at %d and %d; the test needs them equal", seq, m.LastSeq())
	}
	primary.mu.RLock()
	snap := primary.snapshotLocked()
	primary.mu.RUnlock()
	if err := m.ResetFromSnapshot(snap, seq, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	m2 := openDurableMeta(t, dir)
	requireSameState(t, primary, m2, "reopen after a reseed at the checkpoint's sequence")
}
