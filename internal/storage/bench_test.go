package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcloud/internal/md5lanes"
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

// putConcurrently puts every chunk into store from workers goroutines
// that pull indices off one shared counter, and returns the first
// error any of them met.
func putConcurrently(store ChunkStore, workers int, sums []Sum, data [][]byte) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(sums) {
					return
				}
				if err := store.PutCtx(bg, sums[j], data[j]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
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
				if err := putConcurrently(NewMemStore(), workers, sums, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// transferService serves a MemStore through one live front-end whose
// simulated upstream delay (Tsrv) is a lognormal around median, drawn
// from a stream seeded with seed, plus its metadata server. disableBin
// pins the front-end to the per-chunk JSON dialect. It returns the
// metadata URL and a func that stops both servers.
func transferService(median time.Duration, seed uint64, disableBin bool) (metaURL string, stop func()) {
	delaySrc := randx.New(seed)
	var delayMu sync.Mutex
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{
		Store:         NewMemStore(),
		Meta:          meta,
		Sink:          &Collector{},
		SleepUpstream: true,
		UpstreamDelay: func() time.Duration {
			delayMu.Lock()
			defer delayMu.Unlock()
			return time.Duration(delaySrc.LogNormal(math.Log(float64(median)), 0.45))
		},
		DisableBin: disableBin,
	})
	feSrv := httptest.NewServer(fe.Handler())
	metaSrv := httptest.NewServer(meta.Handler())
	meta.AddFrontEnd(feSrv.URL)
	return metaSrv.URL, func() { feSrv.Close(); metaSrv.Close() }
}

// transferPayload is a file of n chunks with random bytes every 4 KB,
// so no chunk dedups against another.
func transferPayload(src *randx.Source, chunks int) []byte {
	p := make([]byte, chunks*ChunkSize)
	for j := 0; j < len(p); j += 4096 {
		v := src.Uint64()
		p[j], p[j+1] = byte(v), byte(v>>8)
	}
	return p
}

// BenchmarkTransferWindow measures a full store+retrieve of one
// multi-chunk file through a live front-end whose upstream delay is a
// ~2 ms lognormal, at several in-flight window sizes. The path is
// latency-bound, so wider windows win even on one core.
func BenchmarkTransferWindow(b *testing.B) {
	metaURL, stop := transferService(2*time.Millisecond, 9, false)
	defer stop()
	const chunks = 8
	payload := transferPayload(randx.New(3), chunks)
	// Fresh content per store (a repeated file is a metadata dedup hit
	// that sends no chunk): stamp each chunk's first bytes, off the
	// clock, from a counter that no sub-benchmark or b.N round reuses.
	var stamp uint64
	restamp := func() {
		stamp++
		for k := 0; k < chunks; k++ {
			binary.LittleEndian.PutUint64(payload[k*ChunkSize+2:], stamp)
		}
	}

	for _, window := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			client := NewClient(ClientConfig{
				MetaURL:  metaURL,
				UserID:   1,
				DeviceID: 1,
				Device:   trace.Android,
				Parallel: window,
			})
			b.SetBytes(int64(len(payload)) * 2)
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restamp()
				b.StartTimer()
				res, err := client.StoreFileCtx(ctx, fmt.Sprintf("bench-w%d-%d.bin", window, i), payload)
				if err != nil {
					b.Fatal(err)
				}
				if res.Deduplicated || res.ChunksSent != chunks {
					b.Fatalf("store sent %d of %d chunks (deduplicated %v)", res.ChunksSent, chunks, res.Deduplicated)
				}
				if _, err := client.RetrieveFileCtx(ctx, res.URL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The scaling floors: the least t(1 worker)/t(8 workers) that
// BenchmarkScalingFloor accepts on each path, with a higher floor for
// the paths whose per-put CPU work a second core overlaps. On a 2-vCPU
// host, 8 writers measured store 1.8-2.1x, disk 2.5-3.8x and transfer
// 2.8-2.9x (one core: 0.98-1.01x, 1.6-2.1x, 2.8x); a store serialized
// by one mutex 0.91-0.97x, a disk that fsyncs once per put 1.2-1.5x,
// and a client held to a window of one 1.0x.
const (
	// storeFloorOneCore: on one core the CPU-bound sharded MemStore
	// cannot speed up; eight writers must only not collapse under
	// lock contention.
	storeFloorOneCore = 0.89
	// storeFloorMultiCore: with a second core, eight writers must beat
	// one by a margin that a store serializing its puts cannot reach.
	storeFloorMultiCore = 1.3
	// diskFloorOneCore: the fsync-bound DiskStore scales by group
	// commit, eight writers sharing each fsync, even when their hash
	// checks and appends take turns on one core.
	diskFloorOneCore = 1.47
	// diskFloorMultiCore: with those overlapping too, eight writers
	// must beat one by a margin that one fsync per put cannot reach.
	diskFloorMultiCore = 2.0
	// transferFloor: the transfer path waits on a 20 ms upstream delay
	// per chunk, so an eight-deep window overlaps those waits even on
	// one core.
	transferFloor = 2.46
)

// coreFloor is the floor for this process: multi when it may run on
// two or more cores, else one.
func coreFloor(one, multi float64) float64 {
	if runtime.GOMAXPROCS(0) >= 2 {
		return multi
	}
	return one
}

// scalingFloor times run at one and at eight workers and fails b when
// the speedup t(1)/t(8) falls below floor. Each iteration discards one
// warmup run at eight workers (it pays the heap growth and page
// faults of the working set), runs a GC before every timing, and takes
// the fastest of three timed runs at each count; the ratio is measured
// whole inside the iteration, so b.N does not enter it.
func scalingFloor(b *testing.B, floor float64, run func(workers int) time.Duration) {
	fastest := func(workers int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < 3; r++ {
			runtime.GC()
			best = min(best, run(workers))
		}
		return best
	}
	for i := 0; i < b.N; i++ {
		runtime.GC()
		run(8)
		t1, t8 := fastest(1), fastest(8)
		speedup := t1.Seconds() / t8.Seconds()
		b.ReportMetric(speedup, "speedup_at_8")
		if speedup < floor {
			b.Fatalf("speedup at 8 workers %.2fx (t1 %v, t8 %v, GOMAXPROCS %d) is below the %.2fx floor",
				speedup, t1, t8, runtime.GOMAXPROCS(0), floor)
		}
	}
}

// BenchmarkScalingFloor is the CI gate on the three paths whose
// overlap the service depends on: concurrent puts into the sharded
// MemStore (store), group-committed durable puts into a DiskStore with
// fsync on (disk), and pipelined per-chunk JSON transfers against a
// front-end that waits on its upstream storage (transfer). It fails
// when a path's speedup at eight workers drops below its floor.
func BenchmarkScalingFloor(b *testing.B) {
	timedPuts := func(b *testing.B, store ChunkStore, workers int, sums []Sum, data [][]byte) time.Duration {
		start := time.Now()
		if err := putConcurrently(store, workers, sums, data); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	b.Run("store", func(b *testing.B) {
		sums, data := benchChunks(512, 16<<10)
		scalingFloor(b, coreFloor(storeFloorOneCore, storeFloorMultiCore), func(workers int) time.Duration {
			return timedPuts(b, NewMemStore(), workers, sums, data)
		})
	})
	b.Run("disk", func(b *testing.B) {
		sums, data := benchChunks(512, 16<<10)
		scalingFloor(b, coreFloor(diskFloorOneCore, diskFloorMultiCore), func(workers int) time.Duration {
			dir, err := os.MkdirTemp(b.TempDir(), "disk")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			ds, err := OpenDiskStore(dir, DiskStoreOptions{SegmentSize: 16 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer ds.Close()
			return timedPuts(b, ds, workers, sums, data)
		})
	})
	b.Run("transfer", func(b *testing.B) {
		src := randx.New(7)
		payloads := [][]byte{transferPayload(src, 8), transferPayload(src, 8)}
		// JSON, as mcsserver -binapi=false pins it: the gate stays on
		// the dialect whose per-chunk requests the window overlaps.
		scalingFloor(b, transferFloor, func(workers int) time.Duration {
			metaURL, stop := transferService(20*time.Millisecond, 99, true)
			defer stop()
			client := NewClient(ClientConfig{MetaURL: metaURL, UserID: 1, DeviceID: 1, Device: trace.Android, Parallel: workers})
			start := time.Now()
			for i, p := range payloads {
				res, err := client.StoreFile(fmt.Sprintf("floor-%d.bin", i), p)
				if err != nil {
					b.Fatal(err)
				}
				got, err := client.RetrieveFile(res.URL)
				if err != nil || !bytes.Equal(got, p) {
					b.Fatalf("retrieve: %v (equal %v)", err, bytes.Equal(got, p))
				}
			}
			return time.Since(start)
		})
	})
}

// BenchmarkIngestBatch measures the server's whole per-byte write path
// for one upload batch — a 4 × 512 KB /v1/bin/put through the handler
// and the cache layer into a DiskStore, up to the batch's one group
// fsync. ns/op is that fsync plus the CPU work (a CRC pass per frame as
// it is read, one lane MD5 pass over the batch, one write per record);
// B/op, which the fsync does not change, shows any payload-sized copy
// that creeps back in.
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
			os.RemoveAll(ds.log.dir)
		}
		dir, err := os.MkdirTemp(b.TempDir(), "ingest")
		if err != nil {
			b.Fatal(err)
		}
		if ds, err = OpenDiskStore(dir, DiskStoreOptions{}); err != nil {
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
// windows of one (strictly serial) and two (the chunk pass on the
// second core while this one hashes the file).
func BenchmarkStoreFileHashing(b *testing.B) {
	_, chunks := benchChunks(1, 4<<20)
	data := chunks[0]
	for _, parallel := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			c := NewClient(ClientConfig{Parallel: parallel})
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				up := newUpload(data)
				if c.window(len(up.sums)) > 1 {
					up.start()
				}
				benchSink = SumBytes(data)
				up.hashAll()
			}
		})
	}
}

// BenchmarkMD5Lanes hashes n independent chunks: side by side in one
// md5lanes pass (the 16-lane kernel where the CPU has AVX-512F), and
// one after another through crypto/md5, the per-chunk loop the lane
// pass replaced on the client and at ingress.
func BenchmarkMD5Lanes(b *testing.B) {
	_, chunks := benchChunks(md5lanes.MaxLanes, ChunkSize)
	b.Logf("16-lane AVX-512 kernel in use: %v", md5lanes.Accelerated())
	sums := make([]Sum, len(chunks))
	for _, n := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("lanes/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * ChunkSize)
			for i := 0; i < b.N; i++ {
				sumChunks(sums[:n], chunks[:n])
			}
		})
		b.Run(fmt.Sprintf("md5/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * ChunkSize)
			for i := 0; i < b.N; i++ {
				for j, c := range chunks[:n] {
					sums[j] = SumBytes(c)
				}
			}
		})
	}
}

var benchSink Sum
