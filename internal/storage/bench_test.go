package storage

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcloud/internal/randx"
	"mcloud/internal/trace"
)

// benchChunks builds pre-hashed chunk payloads so the timed loop
// exercises only the store, not content generation.
func benchChunks(n, size int) ([]Sum, [][]byte) {
	src := randx.New(1)
	sums := make([]Sum, n)
	data := make([][]byte, n)
	for i := range data {
		buf := make([]byte, size)
		for j := 0; j+8 <= size; j += 8 {
			v := src.Uint64()
			for k := 0; k < 8; k++ {
				buf[j+k] = byte(v >> (8 * k))
			}
		}
		data[i] = buf
		sums[i] = SumBytes(buf)
	}
	return sums, data
}

// BenchmarkShardedStorePut measures concurrent Put throughput into
// the sharded MemStore at several goroutine counts.
func BenchmarkShardedStorePut(b *testing.B) {
	const chunks, size = 1024, 16 << 10
	sums, data := benchChunks(chunks, size)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(chunks) * int64(size))
			for i := 0; i < b.N; i++ {
				store := NewMemStore()
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							j := int(next.Add(1)) - 1
							if j >= chunks {
								return
							}
							if err := store.PutCtx(bg, sums[j], data[j]); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkTransferWindow measures a full store+retrieve of one
// multi-chunk file through a live front-end whose upstream delay is a
// ~2 ms lognormal, at several in-flight window sizes. The path is
// latency-bound, so wider windows win even on one core.
func BenchmarkTransferWindow(b *testing.B) {
	const chunksPerFile = 8
	delaySrc := randx.New(9)
	var delayMu sync.Mutex
	store := NewMemStore()
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{
		Store:         store,
		Meta:          meta,
		Sink:          &Collector{},
		SleepUpstream: true,
		UpstreamDelay: func() time.Duration {
			delayMu.Lock()
			defer delayMu.Unlock()
			return time.Duration(delaySrc.LogNormal(math.Log(float64(2*time.Millisecond)), 0.45))
		},
	})
	feSrv := httptest.NewServer(fe.Handler())
	defer feSrv.Close()
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()
	meta.AddFrontEnd(feSrv.URL)

	src := randx.New(3)
	payload := make([]byte, chunksPerFile*ChunkSize)
	for j := 0; j < len(payload); j += 4096 {
		payload[j] = byte(src.Uint64())
	}

	for _, window := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			client := &Client{
				MetaURL:  metaSrv.URL,
				UserID:   1,
				DeviceID: 1,
				Device:   trace.Android,
				Parallel: window,
			}
			b.SetBytes(int64(len(payload)) * 2)
			for i := 0; i < b.N; i++ {
				res, err := client.StoreFile(fmt.Sprintf("bench-w%d-%d.bin", window, i), payload)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := client.RetrieveFile(res.URL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestBatch measures the server's whole per-byte write path
// for one upload batch — a 4 × 512 KB /v1/bin/put through the handler
// and the cache layer into a DiskStore — with fsync off, so ns/op is
// the CPU work (one MD5+CRC pass per frame, one write per record) and
// B/op shows any payload-sized copy that creeps back in.
func BenchmarkIngestBatch(b *testing.B) {
	const frames = 4
	_, chunks := benchChunks(frames, ChunkSize)
	body := appendBinCount(nil, frames)
	for _, c := range chunks {
		body = appendBinFrame(body, SumBytes(c), c)
	}
	// Fresh content per iteration (a repeated chunk is a dedup hit and
	// appends nothing): restamp each frame's payload and re-frame it,
	// off the clock.
	restamp := func(i int) {
		for k := 0; k < frames; k++ {
			f := body[4+k*(recHeaderSize+ChunkSize):][:recHeaderSize+ChunkSize]
			payload := f[recHeaderSize:]
			payload[0], payload[1], payload[2], payload[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
			encodeHeader(f[:recHeaderSize], SumBytes(payload), ChunkSize, payload)
		}
	}
	var ds *DiskStore
	var handler http.Handler
	reopen := func() {
		if ds != nil {
			ds.Close()
			os.RemoveAll(ds.dir)
		}
		dir, err := os.MkdirTemp(b.TempDir(), "ingest")
		if err != nil {
			b.Fatal(err)
		}
		if ds, err = OpenDiskStore(dir, DiskStoreOptions{NoSync: true}); err != nil {
			b.Fatal(err)
		}
		handler = NewFrontEnd(FrontEndConfig{Store: NewCachedStore(ds, 64<<20), Meta: NewMetadata()}).Handler()
	}
	b.SetBytes(frames * ChunkSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%64 == 0 {
			reopen() // bound the disk footprint to 128 MB
		}
		restamp(i)
		req := httptest.NewRequest(http.MethodPost, "/v1/bin/put", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		b.StartTimer()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	reopen()
}

// BenchmarkStoreFileHashing measures StoreFile's hashing stage — file
// digest plus per-chunk frame headers for a 4 MB file — at transfer
// windows of one (strictly serial) and two (chunks on the second
// core while this one hashes the file).
func BenchmarkStoreFileHashing(b *testing.B) {
	_, chunks := benchChunks(1, 4<<20)
	data := chunks[0]
	for _, parallel := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			c := &Client{Parallel: parallel}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				up := newUpload(data)
				up.start(c.window(len(up.sums)) - 1)
				benchSink = SumBytes(data)
				up.hashAll()
			}
		})
	}
}

var benchSink Sum
