package storage

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestChunkReaderPinAcrossCompaction holds a zero-copy reader open
// while the compactor reclaims the segment underneath it: the pinned
// region must stay readable (the unlinked file's descriptor is held
// open) and the segment file must only close after the reader
// releases its pin. Run under -race this also proves the pin counter
// ordering against the compactor's close.
func TestChunkReaderPinAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir, DiskStoreOptions{SegmentSize: 4 << 10, CompactBelow: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	var sums []Sum
	for i := 0; i < 30; i++ {
		data := testChunk(77, i)
		sum := SumBytes(data)
		if err := ds.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
	}

	// Pick a chunk that landed in a sealed segment.
	ds.mu.RLock()
	activeID := ds.active.id
	var target Sum
	var targetSeg uint32
	found := false
	for _, sum := range sums {
		if loc := ds.index[sum]; loc.seg != activeID {
			target, targetSeg, found = sum, loc.seg, true
			break
		}
	}
	ds.mu.RUnlock()
	if !found {
		t.Fatal("no sealed segment produced; lower SegmentSize")
	}
	want, err := ds.GetCtx(bg, target)
	if err != nil {
		t.Fatal(err)
	}

	rd, err := ds.GetReaderCtx(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Size() != int64(len(want)) {
		t.Fatalf("Size() = %d, want %d", rd.Size(), len(want))
	}

	// Tombstone every other chunk in the pinned segment so only it
	// falls below the compaction threshold.
	for _, sum := range sums {
		if sum == target {
			continue
		}
		ds.mu.RLock()
		loc, ok := ds.index[sum]
		ds.mu.RUnlock()
		if ok && loc.seg == targetSeg {
			if err := ds.Delete(sum); err != nil {
				t.Fatal(err)
			}
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := ds.Compact()
		done <- err
	}()

	// Compaction progresses to the unlink, then must block on the pin
	// before closing the descriptor.
	segPath := filepath.Join(dir, segName(targetSeg))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(segPath); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compaction never unlinked the pinned segment")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("compaction completed while the reader's pin was held (err=%v)", err)
	default:
	}

	// The pinned region still streams intact, CRC-verified bytes from
	// the unlinked file.
	var buf bytes.Buffer
	n, verified, err := rd.StreamTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !verified {
		t.Fatal("stream CRC did not verify")
	}
	if n != int64(len(want)) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("streamed %d bytes, content match=%v", n, bytes.Equal(buf.Bytes(), want))
	}

	rd.Close()
	if err := <-done; err != nil {
		t.Fatalf("compaction failed after pin release: %v", err)
	}
	// The chunk survived the move into the active segment.
	got, err := ds.GetCtx(bg, target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chunk corrupted across compaction")
	}
}

// TestGetReaderAcrossTiers drives the uniform streamed-read interface
// over every store the front-end can serve from.
func TestGetReaderAcrossTiers(t *testing.T) {
	data := testChunk(81, 0)
	sum := SumBytes(data)

	disk, _ := newDiskStore(t, DiskStoreOptions{})
	ring, _ := newTestCluster(t, 1, 1, 1)
	stores := map[string]ChunkStore{
		"mem":        NewMemStore(),
		"cached":     NewCachedStore(NewMemStore(), 1<<20),
		"disk":       disk,
		"replicated": ring[0].rs,
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			if err := s.PutCtx(bg, sum, data); err != nil {
				t.Fatal(err)
			}
			rd, err := s.GetReaderCtx(bg, sum)
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			if rd.Size() != int64(len(data)) {
				t.Fatalf("Size() = %d, want %d", rd.Size(), len(data))
			}
			// The reader is restartable: a second pass streams the same
			// verified bytes.
			for pass := 1; pass <= 2; pass++ {
				var buf bytes.Buffer
				n, verified, err := rd.StreamTo(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if !verified || n != int64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
					t.Fatalf("pass %d: stream mismatch: n=%d verified=%v", pass, n, verified)
				}
			}
			if _, err := s.GetReaderCtx(bg, SumBytes([]byte("absent"))); !IsNotFound(err) {
				t.Fatalf("missing chunk: err = %v, want not found", err)
			}
		})
	}
}
