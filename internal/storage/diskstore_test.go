package storage

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func newDiskStore(t *testing.T, opts DiskStoreOptions) (*DiskStore, string) {
	t.Helper()
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, dir
}

// testChunk derives a deterministic pseudo-random chunk from (seed, i)
// with a size that varies across records. Parent and child of the
// SIGKILL test regenerate identical content from the same pair.
func testChunk(seed int64, i int) []byte {
	size := 100 + (i*2503)%9000
	r := rand.New(rand.NewSource(seed + int64(i)*7919))
	data := make([]byte, size)
	r.Read(data)
	return data
}

func TestDiskStorePutGetHasDelete(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{})
	data := []byte("durable chunk payload")
	sum := SumBytes(data)

	if ds.Has(sum) {
		t.Fatal("Has before Put")
	}
	if err := ds.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	if !ds.Has(sum) {
		t.Fatal("Has after Put")
	}
	got, err := ds.GetCtx(bg, sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
	if err := ds.Delete(sum); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.GetCtx(bg, sum); err != ErrNotFound {
		t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
	}
	if err := ds.Delete(sum); err != ErrNotFound {
		t.Fatalf("double Delete: err = %v, want ErrNotFound", err)
	}
}

func TestDiskStoreRejectsWrongDigest(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{})
	if err := ds.PutCtx(bg, SumBytes([]byte("other")), []byte("data")); err != errBadDigest {
		t.Fatalf("err = %v, want errBadDigest", err)
	}
}

func TestDiskStoreDedupStats(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{})
	data := []byte("same content twice")
	sum := SumBytes(data)
	for i := 0; i < 2; i++ {
		if err := ds.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
	}
	st := ds.Stats()
	want := StoreStats{Chunks: 1, Bytes: int64(len(data)), Puts: 2, DedupHits: 1, BytesStored: 2 * int64(len(data))}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}

func TestDiskStoreReopen(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sums []Sum
	var chunks [][]byte
	for i := 0; i < 20; i++ {
		data := testChunk(1, i)
		sum := SumBytes(data)
		if err := ds.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
		chunks = append(chunks, data)
	}
	// A tombstone must survive reopen too.
	if err := ds.Delete(sums[3]); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	for i, sum := range sums {
		got, err := ds2.GetCtx(bg, sum)
		if i == 3 {
			if err != ErrNotFound {
				t.Fatalf("deleted chunk %d resurrected: err = %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, chunks[i]) {
			t.Fatalf("chunk %d corrupted after reopen", i)
		}
	}
	st := ds2.Stats()
	if st.Chunks != 19 {
		t.Fatalf("recovered Chunks = %d, want 19", st.Chunks)
	}
	var wantBytes int64
	for i, c := range chunks {
		if i != 3 {
			wantBytes += int64(len(c))
		}
	}
	if st.Bytes != wantBytes {
		t.Fatalf("recovered Bytes = %d, want %d", st.Bytes, wantBytes)
	}
	if ds2.DiskStats().Recovery <= 0 {
		t.Fatal("recovery duration not recorded")
	}
	// The store stays writable after recovery.
	extra := testChunk(1, 999)
	if err := ds2.PutCtx(bg, SumBytes(extra), extra); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreSegmentRotation(t *testing.T) {
	ds, dir := newDiskStore(t, DiskStoreOptions{SegmentSize: 4 << 10})
	var sums []Sum
	var chunks [][]byte
	for i := 0; i < 40; i++ {
		data := testChunk(2, i)
		sum := SumBytes(data)
		if err := ds.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
		chunks = append(chunks, data)
	}
	st := ds.DiskStats()
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2 with a 4 KB segment size", st.Segments)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != st.Segments {
		t.Fatalf("%d files on disk, stats say %d segments", len(entries), st.Segments)
	}
	for i, sum := range sums {
		got, err := ds.GetCtx(bg, sum)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, chunks[i]) {
			t.Fatalf("chunk %d corrupted across rotation", i)
		}
	}
}

func TestDiskStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir, DiskStoreOptions{SegmentSize: 8 << 10, CompactBelow: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var sums []Sum
	var chunks [][]byte
	for i := 0; i < 60; i++ {
		data := testChunk(3, i)
		sum := SumBytes(data)
		if err := ds.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
		chunks = append(chunks, data)
	}
	// Kill three quarters of the chunks: most sealed segments drop
	// below 50% live.
	for i, sum := range sums {
		if i%4 != 0 {
			if err := ds.Delete(sum); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := ds.DiskStats()
	if before.DeadBytes == 0 {
		t.Fatal("no dead bytes after deletes")
	}
	n, err := ds.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("Compact reclaimed no segments")
	}
	after := ds.DiskStats()
	if after.Segments >= before.Segments {
		t.Fatalf("segments %d -> %d, want fewer", before.Segments, after.Segments)
	}
	if after.DeadBytes >= before.DeadBytes {
		t.Fatalf("dead bytes %d -> %d, want fewer", before.DeadBytes, after.DeadBytes)
	}
	if after.Compactions != int64(n) {
		t.Fatalf("Compactions = %d, want %d", after.Compactions, n)
	}
	// Survivors intact, victims gone — including across a reopen of
	// the compacted layout.
	check := func(ds *DiskStore) {
		t.Helper()
		for i, sum := range sums {
			got, err := ds.GetCtx(bg, sum)
			if i%4 != 0 {
				if err != ErrNotFound {
					t.Fatalf("deleted chunk %d: err = %v", i, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("live chunk %d: %v", i, err)
			}
			if !bytes.Equal(got, chunks[i]) {
				t.Fatalf("live chunk %d corrupted by compaction", i)
			}
		}
	}
	check(ds)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := OpenDiskStore(dir, DiskStoreOptions{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	check(ds2)
}

// TestDiskStoreGCWiring exercises the existing GC path end to end
// against the durable store: deleting the last referencing file
// tombstones its chunks and triggers the compactor.
func TestDiskStoreGCWiring(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{SegmentSize: 2 << 10, CompactBelow: 0.9})
	meta := NewMetadata("fe")
	rc := NewRefCounter()

	content := bytes.Repeat([]byte("gcpayload!"), 600)
	fileSum := SumBytes(content)
	resp, err := meta.StoreCheckCtx(bg, StoreCheckRequest{UserID: 1, Name: "gc.bin", Size: int64(len(content)), FileMD5: fileSum.String()})
	if err != nil {
		t.Fatal(err)
	}
	sums := SplitSums(content)
	if err := ds.PutCtx(bg, sums[0], content); err != nil {
		t.Fatal(err)
	}
	// Filler chunks spread across several sealed segments so the
	// delete sweep leaves compactable ones behind.
	for i := 0; i < 40; i++ {
		data := testChunk(4, i)
		if err := ds.PutCtx(bg, SumBytes(data), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := meta.CommitCtx(bg, 0, resp.URL, sums); err != nil {
		t.Fatal(err)
	}
	rc.Acquire(sums)

	n, err := DeleteFile(bg, nil, meta, rc, ds, 1, resp.URL)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sums) {
		t.Fatalf("reclaimed %d chunks, want %d", n, len(sums))
	}
	for _, sum := range sums {
		if ds.Has(sum) {
			t.Fatal("reclaimed chunk still present")
		}
	}
	// The sweep's Compact hook ran: the segment holding the reclaimed
	// file chunk crossed the 0.9 live-ratio threshold and was rewritten.
	if ds.DiskStats().Compactions == 0 {
		t.Fatal("GC sweep did not trigger compaction")
	}
	for i := 0; i < 40; i++ {
		data := testChunk(4, i)
		got, err := ds.GetCtx(bg, SumBytes(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("filler chunk %d lost after GC compaction: %v", i, err)
		}
	}
}

// TestDiskStoreTornTail is the table-driven crash-recovery test: a
// store's final segment is truncated at assorted byte offsets and the
// reopened store must serve exactly the records that fully survived,
// discarding the torn tail.
func TestDiskStoreTornTail(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]byte
	var sums []Sum
	var ends []int64 // cumulative record end offsets
	off := int64(0)
	for i := 0; i < n; i++ {
		data := testChunk(5, i)
		sum := SumBytes(data)
		if err := ds.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, data)
		sums = append(sums, sum)
		off += recordSize(uint32(len(data)))
		ends = append(ends, off)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	if info, err := os.Stat(seg); err != nil || info.Size() != ends[n-1] {
		t.Fatalf("segment size = %v/%v, want %d", info, err, ends[n-1])
	}

	cases := []struct {
		name string
		cut  int64 // file size after truncation
	}{
		{"one-byte-short", ends[n-1] - 1},
		{"mid-payload", ends[n-2] + recHeaderSize + 17},
		{"mid-header", ends[n-2] + recHeaderSize/2},
		{"exact-boundary", ends[n-2]},
		{"two-records-torn", ends[n-3] + 5},
		{"header-only", ends[n-3] + recHeaderSize},
		{"empty-file", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cdir := t.TempDir()
			copyFile(t, seg, filepath.Join(cdir, segName(0)))
			if err := os.Truncate(filepath.Join(cdir, segName(0)), tc.cut); err != nil {
				t.Fatal(err)
			}
			rs, err := OpenDiskStore(cdir, DiskStoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			for i := range sums {
				got, err := rs.GetCtx(bg, sums[i])
				if ends[i] <= tc.cut {
					if err != nil {
						t.Fatalf("surviving chunk %d: %v", i, err)
					}
					if !bytes.Equal(got, chunks[i]) {
						t.Fatalf("surviving chunk %d corrupted", i)
					}
				} else if err != ErrNotFound {
					t.Fatalf("torn chunk %d: err = %v, want ErrNotFound", i, err)
				}
			}
			onBoundary := tc.cut == 0
			for _, e := range ends {
				onBoundary = onBoundary || tc.cut == e
			}
			if got := rs.DiskStats().Truncated; onBoundary && got != 0 {
				t.Fatalf("clean-boundary cut reported %d torn bytes", got)
			} else if !onBoundary && got == 0 {
				t.Fatal("truncated bytes not recorded")
			}
			// Appends resume cleanly on the healed tail.
			extra := testChunk(5, 1000)
			if err := rs.PutCtx(bg, SumBytes(extra), extra); err != nil {
				t.Fatal(err)
			}
			if got, err := rs.GetCtx(bg, SumBytes(extra)); err != nil || !bytes.Equal(got, extra) {
				t.Fatalf("post-recovery Put unreadable: %v", err)
			}
		})
	}
}

// TestDiskStoreTornTailFuzzSeed drives the same invariant from a
// seeded stream of random truncation points, including cuts landing
// inside earlier records of the final segment.
func TestDiskStoreTornTailFuzzSeed(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]byte
	var sums []Sum
	var ends []int64
	off := int64(0)
	for i := 0; i < n; i++ {
		data := testChunk(6, i)
		sum := SumBytes(data)
		if err := ds.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, data)
		sums = append(sums, sum)
		off += recordSize(uint32(len(data)))
		ends = append(ends, off)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))

	r := rand.New(rand.NewSource(0xD15C))
	for round := 0; round < 25; round++ {
		cut := r.Int63n(ends[n-1] + 1)
		cdir := t.TempDir()
		copyFile(t, seg, filepath.Join(cdir, segName(0)))
		if err := os.Truncate(filepath.Join(cdir, segName(0)), cut); err != nil {
			t.Fatal(err)
		}
		rs, err := OpenDiskStore(cdir, DiskStoreOptions{})
		if err != nil {
			t.Fatalf("round %d (cut %d): %v", round, cut, err)
		}
		for i := range sums {
			got, err := rs.GetCtx(bg, sums[i])
			if ends[i] <= cut {
				if err != nil || !bytes.Equal(got, chunks[i]) {
					t.Fatalf("round %d (cut %d): surviving chunk %d bad: %v", round, cut, i, err)
				}
			} else if err != ErrNotFound {
				t.Fatalf("round %d (cut %d): torn chunk %d: err = %v", round, cut, i, err)
			}
		}
		rs.Close()
	}
}

// TestDiskStoreSIGKILLRecovery is the end-to-end crash test: a child
// process appends chunks (printing an ack only after Put's fsync
// cover returns), the parent SIGKILLs it mid-stream, reopens the
// directory, and every acknowledged chunk must come back
// byte-identical.
func TestDiskStoreSIGKILLRecovery(t *testing.T) {
	const seed = 0xC4A5
	if dir := os.Getenv("MCS_DISK_CRASH_DIR"); dir != "" {
		crashChild(dir, seed)
		return
	}
	if testing.Short() {
		t.Skip("subprocess test")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDiskStoreSIGKILLRecovery$")
	cmd.Env = append(os.Environ(), "MCS_DISK_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	acked := -1
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		var i int
		if _, err := fmt.Sscanf(sc.Text(), "acked %d", &i); err == nil {
			acked = i
			if i >= 40 {
				break // enough durable state; kill mid-stream
			}
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if acked < 0 {
		t.Fatal("child acknowledged no chunks before dying")
	}

	ds, err := OpenDiskStore(dir, DiskStoreOptions{SegmentSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	lost, corrupted := 0, 0
	for i := 0; i <= acked; i++ {
		data := testChunk(seed, i)
		got, err := ds.GetCtx(bg, SumBytes(data))
		if err != nil {
			lost++
			continue
		}
		if !bytes.Equal(got, data) {
			corrupted++
		}
	}
	if lost != 0 || corrupted != 0 {
		t.Fatalf("of %d acknowledged chunks: %d lost, %d corrupted", acked+1, lost, corrupted)
	}
	t.Logf("SIGKILL recovery: %d acknowledged chunks, 0 lost, 0 corrupted (recovery %v, %d torn bytes truncated)",
		acked+1, ds.DiskStats().Recovery, ds.DiskStats().Truncated)
}

// crashChild is the SIGKILL victim: it appends deterministic chunks
// forever, acknowledging each only once durable, until the parent
// kills it.
func crashChild(dir string, seed int64) {
	ds, err := OpenDiskStore(dir, DiskStoreOptions{SegmentSize: 32 << 10})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		data := testChunk(seed, i)
		if err := ds.PutCtx(bg, SumBytes(data), data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("acked %d\n", i)
	}
}

func TestDiskStoreConcurrent(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{SegmentSize: 64 << 10})
	const (
		workers = 8
		per     = 30
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				data := testChunk(7, w*per+i)
				sum := SumBytes(data)
				if err := ds.PutCtx(bg, sum, data); err != nil {
					t.Error(err)
					return
				}
				got, err := ds.GetCtx(bg, sum)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("readback %d/%d: %v", w, i, err)
					return
				}
				if i%5 == 0 {
					if err := ds.Delete(sum); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// A compactor churning concurrently must never lose a live chunk.
	stop := make(chan struct{})
	compDone := make(chan struct{})
	go func() {
		defer close(compDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ds.Compact(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-compDone

	st := ds.Stats()
	want := workers * per * 4 / 5 // every 5th chunk of each worker deleted
	if st.Chunks != want {
		t.Fatalf("Chunks = %d, want %d", st.Chunks, want)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			data := testChunk(7, w*per+i)
			got, err := ds.GetCtx(bg, SumBytes(data))
			if i%5 == 0 {
				if err != ErrNotFound {
					t.Fatalf("deleted %d/%d: err = %v", w, i, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("chunk %d/%d lost or corrupted: %v", w, i, err)
			}
		}
	}
}

// TestDiskStoreFsyncBatching verifies group commit deterministically:
// the test holds the sync lock while a batch of writers append, so
// when the lock is released the first writer's fsync must cover the
// whole batch and the rest return without syncing.
func TestDiskStoreFsyncBatching(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{})
	const workers = 16

	// Warm up so the baseline fsync count is stable.
	warm := testChunk(8, 9999)
	if err := ds.PutCtx(bg, SumBytes(warm), warm); err != nil {
		t.Fatal(err)
	}
	base := ds.DiskStats().Fsyncs
	wantLSN := ds.appendLSN.Load()
	for i := 0; i < workers; i++ {
		wantLSN += recordSize(uint32(len(testChunk(8, i))))
	}

	ds.syncMu.Lock() // stall every writer's fsync behind the test
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := testChunk(8, w)
			if err := ds.PutCtx(bg, SumBytes(data), data); err != nil {
				t.Error(err)
			}
		}(w)
	}
	// Wait until every writer has appended (Put blocks only in syncTo).
	for ds.appendLSN.Load() < wantLSN {
		time.Sleep(time.Millisecond)
	}
	ds.syncMu.Unlock()
	wg.Wait()

	got := ds.DiskStats().Fsyncs - base
	if got >= workers {
		t.Fatalf("%d fsyncs for %d batched puts; group commit not batching", got, workers)
	}
	if got == 0 {
		t.Fatal("no fsync issued for the batch")
	}
	t.Logf("group commit: %d puts covered by %d fsyncs", workers, got)
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
