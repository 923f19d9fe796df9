// Command mcsbench measures how the four parallelized hot paths scale
// with worker count — sharded chunk-store writes, pipelined chunk
// transfers over a live in-process service, bounded-memory workload
// generation, and user-sharded analysis — and writes the results to a
// JSON report (BENCH_pipeline.json by default).
//
// The report records GOMAXPROCS and NumCPU alongside every timing:
// the store, generation, and analysis paths are CPU-bound, so their
// scaling is limited by available cores, while the transfer path is
// latency-bound (it overlaps simulated upstream processing delays)
// and scales with the in-flight window even on one core.
//
// Usage:
//
//	mcsbench                # full run, writes BENCH_pipeline.json
//	mcsbench -quick         # reduced sizes for CI smoke
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/core"
	"mcloud/internal/randx"
	"mcloud/internal/storage"
	"mcloud/internal/trace"
	"mcloud/internal/tracing"
	"mcloud/internal/workload"
)

var workerCounts = []int{1, 2, 4, 8}

// pathReport is one hot path's scaling measurement.
type pathReport struct {
	// SecondsByWorkers maps worker count to wall-clock seconds.
	SecondsByWorkers map[string]float64 `json:"seconds_by_workers"`
	// SpeedupAt8 is t(1 worker) / t(8 workers).
	SpeedupAt8 float64 `json:"speedup_at_8"`
	Notes      string  `json:"notes,omitempty"`
}

type report struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Quick      bool   `json:"quick"`
	Timestamp  string `json:"timestamp"`

	Paths map[string]pathReport `json:"paths"`
	// AggregateSpeedupAt8 is the geometric mean of the per-path
	// 8-worker speedups.
	AggregateSpeedupAt8 float64 `json:"aggregate_speedup_at_8"`
	// TracedOverheadAt8 is t(transfer_traced, 8w) / t(transfer, 8w) - 1:
	// the fraction of transfer time added by tracing every operation.
	TracedOverheadAt8 float64 `json:"traced_overhead_at_8"`
	// BinGainAt8 is 1 - t(transfer_bin, 8w) / t(transfer, 8w): the
	// fraction of 8-worker transfer time saved by the mcsbin/1 batched
	// binary dialect over per-chunk JSON.
	BinGainAt8 float64 `json:"bin_gain_at_8"`
}

// gatedPaths are the hot paths the -baseline flag guards: a run whose
// speedup_at_8 drops more than 10% below the committed baseline fails.
var gatedPaths = []string{"store", "disk", "transfer"}

const baselineSlack = 0.9

func main() {
	var (
		out      = flag.String("o", "BENCH_pipeline.json", "report output path")
		quick    = flag.Bool("quick", false, "reduced problem sizes for CI smoke runs")
		baseline = flag.String("baseline", "", "committed report to gate against: exit non-zero if any of store/disk/transfer speedup_at_8 drops >10% below it")
		only     = flag.String("only", "", "comma-separated path names to run (default all); aggregate and delta lines need their inputs present")
		reps     = flag.Int("reps", 3, "repetitions per timing; the minimum is reported (least-noise estimator, stabilizes the gated speedup ratios)")
	)
	flag.Parse()
	if *reps < 1 {
		*reps = 1
	}

	rep := report{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      *quick,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Paths:      map[string]pathReport{},
	}
	fmt.Printf("mcsbench: GOMAXPROCS=%d NumCPU=%d quick=%v\n", rep.GOMAXPROCS, rep.NumCPU, *quick)

	paths := []struct {
		name  string
		notes string
		run   func(workers int, quick bool) float64
	}{
		{"store", "CPU/lock-bound: concurrent Put into the sharded chunk store", benchStore},
		{"disk", "fsync-bound: concurrent durable Put into the segment store; group commit amortizes fsyncs across writers", benchDisk},
		{"transfer", "latency-bound: pipelined per-chunk JSON PUT+GET against a live front-end with a 20ms median simulated upstream delay (dialect pinned to JSON)", benchTransfer},
		{"transfer_bin", "the same workload over the mcsbin/1 batched binary dialect; the delta vs transfer is the dialect win (batched frames share upstream round trips)", benchTransferBin},
		{"transfer_traced", "the JSON transfer path with distributed tracing on and every operation sampled; the delta vs transfer is the tracing overhead", benchTransferTraced},
		{"cluster", "same workload and negotiated binary dialect as transfer_bin, but through a 3-node N=3/W=2 replicated cluster on loopback; the delta vs transfer_bin is the replication fan-out and one-hop forwarding overhead", benchCluster},
		{"generate", "CPU-bound: bounded-memory workload generation via StreamP", benchGenerate},
		{"analyze", "CPU-bound: user-sharded fold + merge via ParallelAnalyzer", benchAnalyze},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}

	speedups := make([]float64, 0, len(paths))
	for _, p := range paths {
		if len(want) > 0 && !want[p.name] {
			continue
		}
		pr := pathReport{SecondsByWorkers: map[string]float64{}, Notes: p.notes}
		// One discarded warmup run per path: the first timed run
		// otherwise pays heap growth and page faults for the path's
		// working set, inflating t(1) and with it the reported speedup.
		runtime.GC()
		p.run(workerCounts[len(workerCounts)-1], *quick)
		var t1, t8 float64
		for _, w := range workerCounts {
			secs := math.Inf(1)
			for r := 0; r < *reps; r++ {
				// Settle allocator debt from setup/previous runs so one
				// timing doesn't pay another's GC bill.
				runtime.GC()
				secs = math.Min(secs, p.run(w, *quick))
			}
			pr.SecondsByWorkers[fmt.Sprint(w)] = secs
			fmt.Printf("mcsbench: %-8s workers=%d  %8.3fs\n", p.name, w, secs)
			if w == 1 {
				t1 = secs
			}
			if w == 8 {
				t8 = secs
			}
		}
		if t8 > 0 {
			pr.SpeedupAt8 = t1 / t8
		}
		fmt.Printf("mcsbench: %-8s speedup at 8 workers: %.2fx\n", p.name, pr.SpeedupAt8)
		rep.Paths[p.name] = pr
		speedups = append(speedups, pr.SpeedupAt8)
	}

	if len(speedups) > 0 {
		logSum := 0.0
		for _, s := range speedups {
			logSum += math.Log(math.Max(s, 1e-9))
		}
		rep.AggregateSpeedupAt8 = math.Exp(logSum / float64(len(speedups)))
		fmt.Printf("mcsbench: aggregate speedup at 8 workers: %.2fx (geometric mean)\n", rep.AggregateSpeedupAt8)
	}

	if plain, traced := rep.Paths["transfer"].SecondsByWorkers["8"], rep.Paths["transfer_traced"].SecondsByWorkers["8"]; plain > 0 && traced > 0 {
		rep.TracedOverheadAt8 = traced/plain - 1
		fmt.Printf("mcsbench: tracing overhead on the transfer path at 8 workers: %+.1f%%\n", 100*rep.TracedOverheadAt8)
	}
	if plain, bin := rep.Paths["transfer"].SecondsByWorkers["8"], rep.Paths["transfer_bin"].SecondsByWorkers["8"]; plain > 0 && bin > 0 {
		rep.BinGainAt8 = 1 - bin/plain
		fmt.Printf("mcsbench: mcsbin/1 gain over JSON on the transfer path at 8 workers: %.1f%%\n", 100*rep.BinGainAt8)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("mcsbench: wrote %s\n", *out)

	if *baseline != "" {
		if err := gateAgainst(*baseline, rep); err != nil {
			fatal(err)
		}
	}
}

// gateAgainst compares this run's gated speedups with a committed
// baseline report and errors if any regressed past the slack. The
// baseline must come from the same mode: quick runs have smaller,
// overhead-dominated problem sizes whose speedups are not comparable
// with full-size numbers.
func gateAgainst(path string, rep report) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Quick != rep.Quick {
		return fmt.Errorf("baseline %s was recorded with quick=%v but this run is quick=%v; speedups are only comparable within a mode", path, base.Quick, rep.Quick)
	}
	failed := false
	for _, name := range gatedPaths {
		want, ok := base.Paths[name]
		if !ok || want.SpeedupAt8 <= 0 {
			fmt.Printf("mcsbench: gate %-8s no baseline speedup recorded; skipping\n", name)
			continue
		}
		got := rep.Paths[name].SpeedupAt8
		floor := want.SpeedupAt8 * baselineSlack
		verdict := "ok"
		if got < floor {
			verdict = "REGRESSED"
			failed = true
		}
		fmt.Printf("mcsbench: gate %-8s speedup_at_8 %.2fx vs baseline %.2fx (floor %.2fx): %s\n",
			name, got, want.SpeedupAt8, floor, verdict)
	}
	if failed {
		return fmt.Errorf("speedup regression vs baseline %s (floor is %.0f%% of committed speedup_at_8)", path, 100*baselineSlack)
	}
	return nil
}

// benchStore times W goroutines putting pre-hashed chunks into one
// sharded MemStore — the pure store write path, no HTTP.
func benchStore(workers int, quick bool) float64 {
	chunks, size := 4096, 64<<10
	if quick {
		chunks, size = 512, 16<<10
	}
	data := make([][]byte, chunks)
	sums := make([]storage.Sum, chunks)
	src := randx.New(1)
	for i := range data {
		buf := make([]byte, size)
		for j := 0; j < size; j += 8 {
			v := src.Uint64()
			for k := 0; k < 8 && j+k < size; k++ {
				buf[j+k] = byte(v >> (8 * k))
			}
		}
		data[i] = buf
		sums[i] = storage.SumBytes(buf)
	}

	store := storage.NewMemStore()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= chunks {
					return
				}
				if err := store.PutCtx(context.Background(), sums[i], data[i]); err != nil {
					fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// benchDisk times W goroutines putting pre-hashed chunks into a
// DiskStore with full durability (every acknowledged Put is
// fsync-covered). Unlike the RAM path this is fsync-bound, so the
// scaling it measures is the group commit: more concurrent writers
// share each fsync instead of issuing their own.
func benchDisk(workers int, quick bool) float64 {
	// Quick mode still needs enough puts for the fsync group-commit
	// ratio to settle — a ~0.1s run is all scheduler noise and makes
	// the CI regression gate flake.
	chunks, size := 1024, 64<<10
	if quick {
		chunks, size = 512, 16<<10
	}
	data := make([][]byte, chunks)
	sums := make([]storage.Sum, chunks)
	src := randx.New(11)
	for i := range data {
		buf := make([]byte, size)
		for j := 0; j < size; j += 8 {
			v := src.Uint64()
			for k := 0; k < 8 && j+k < size; k++ {
				buf[j+k] = byte(v >> (8 * k))
			}
		}
		data[i] = buf
		sums[i] = storage.SumBytes(buf)
	}

	dir, err := os.MkdirTemp("", "mcsbench-disk-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := storage.OpenDiskStore(dir, storage.DiskStoreOptions{SegmentSize: 16 << 20})
	if err != nil {
		fatal(err)
	}
	defer store.Close()

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= chunks {
					return
				}
				if err := store.PutCtx(context.Background(), sums[i], data[i]); err != nil {
					fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	st := store.DiskStats()
	fmt.Printf("mcsbench: disk     workers=%d  %d puts / %d fsyncs\n", workers, chunks, st.Fsyncs)
	return elapsed
}

// benchTransfer times storing and retrieving files through a live
// in-process front-end whose upstream delay is a ~20 ms lognormal,
// with the client keeping `workers` chunk requests in flight. The
// dialect is pinned to per-chunk JSON so this path stays comparable
// with pre-mcsbin baselines; transfer_bin measures the binary dialect.
func benchTransfer(workers int, quick bool) float64 {
	return benchTransferWith(workers, quick, nil, true)
}

// benchTransferBin is the identical workload with the mcsbin/1 batched
// binary dialect negotiated (the default for current clients).
func benchTransferBin(workers int, quick bool) float64 {
	return benchTransferWith(workers, quick, nil, false)
}

// benchTransferTraced is the identical workload with a tracer on both
// sides and every operation sampled — the worst case for tracing
// overhead on the wire path.
func benchTransferTraced(workers int, quick bool) float64 {
	return benchTransferWith(workers, quick, tracing.New(tracing.Config{Node: "bench", Sample: 1}), true)
}

func benchTransferWith(workers int, quick bool, tracer *tracing.Tracer, disableBin bool) float64 {
	// Few deep files rather than many shallow ones: a 16 MB sync object
	// keeps a 32-chunk pipeline busy, which is the shape where window
	// depth (and batched round trips) matter; per-file metadata ops
	// amortize identically across both dialects.
	files, chunksPerFile := 2, 32
	if quick {
		files, chunksPerFile = 2, 8
	}

	// The paper's service sees upstream processing times (Tsrv) of
	// tens to hundreds of milliseconds; 20 ms keeps the run short
	// while still dominating per-chunk CPU work.
	delaySrc := randx.New(99)
	var delayMu sync.Mutex
	median := float64(20 * time.Millisecond)
	store := storage.NewMemStore()
	meta := storage.NewMetadata()
	fe := storage.NewFrontEnd(storage.FrontEndConfig{
		Store:         store,
		Meta:          meta,
		Sink:          &storage.Collector{},
		SleepUpstream: true,
		UpstreamDelay: func() time.Duration {
			delayMu.Lock()
			defer delayMu.Unlock()
			return time.Duration(delaySrc.LogNormal(math.Log(median), 0.45))
		},
		Tracer: tracer,
	})
	feSrv := httptest.NewServer(fe.Handler())
	defer feSrv.Close()
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()
	meta.AddFrontEnd(feSrv.URL)

	client := storage.NewClient(storage.ClientConfig{
		MetaURL:    metaSrv.URL,
		UserID:     1,
		DeviceID:   1,
		Device:     trace.Android,
		Parallel:   workers,
		Tracer:     tracer,
		DisableBin: disableBin,
	})

	payloads := make([][]byte, files)
	src := randx.New(7)
	for i := range payloads {
		buf := make([]byte, chunksPerFile*storage.ChunkSize)
		for j := 0; j < len(buf); j += 4096 {
			v := src.Uint64()
			buf[j] = byte(v)
			buf[j+1] = byte(v >> 8)
		}
		payloads[i] = buf
	}

	start := time.Now()
	for i, p := range payloads {
		res, err := client.StoreFileCtx(context.Background(), fmt.Sprintf("bench-%d-%d.bin", workers, i), p)
		if err != nil {
			fatal(err)
		}
		got, err := client.RetrieveFileCtx(context.Background(), res.URL)
		if err != nil {
			fatal(err)
		}
		if len(got) != len(p) {
			fatal(fmt.Errorf("transfer bench: got %d bytes, want %d", len(got), len(p)))
		}
	}
	return time.Since(start).Seconds()
}

// benchCluster is the transfer workload through a 3-node replicated
// cluster: every chunk PUT fans out to its ring owners (quorum W=2 of
// N=3) and GETs may forward one hop to a replica. The client
// negotiates mcsbin/1 as it would in production, so the honest
// single-node comparison point is transfer_bin (same shape, same
// dialect); that delta isolates the replication overhead.
func benchCluster(workers int, quick bool) float64 {
	files, chunksPerFile := 2, 32
	if quick {
		files, chunksPerFile = 2, 8
	}

	delaySrc := randx.New(99)
	var delayMu sync.Mutex
	median := float64(20 * time.Millisecond)
	upstream := func() time.Duration {
		delayMu.Lock()
		defer delayMu.Unlock()
		return time.Duration(delaySrc.LogNormal(math.Log(median), 0.45))
	}

	// Listeners first: the membership URLs must exist before the
	// replicated stores that reference them.
	const nodes = 3
	lns := make([]net.Listener, nodes)
	peers := make([]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	meta := storage.NewMetadata()
	var servers []*http.Server
	for i := range lns {
		rs, err := storage.NewReplicatedStore(storage.ReplicatedConfig{
			Self:        peers[i],
			Peers:       peers,
			Replicas:    3,
			WriteQuorum: 2,
			Local:       storage.NewMemStore(),
			RepairEvery: -1,
		})
		if err != nil {
			fatal(err)
		}
		defer rs.Close()
		fe := storage.NewFrontEnd(storage.FrontEndConfig{
			Store:         rs,
			Meta:          meta,
			Sink:          &storage.Collector{},
			SleepUpstream: true,
			UpstreamDelay: upstream,
		})
		srv := &http.Server{Handler: fe.Handler()}
		go srv.Serve(lns[i])
		servers = append(servers, srv)
		meta.AddFrontEnd(peers[i])
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()

	client := storage.NewClient(storage.ClientConfig{
		MetaURL:  metaSrv.URL,
		UserID:   2,
		DeviceID: 2,
		Device:   trace.Android,
		Parallel: workers,
	})

	payloads := make([][]byte, files)
	src := randx.New(7)
	for i := range payloads {
		buf := make([]byte, chunksPerFile*storage.ChunkSize)
		for j := 0; j < len(buf); j += 4096 {
			v := src.Uint64()
			buf[j] = byte(v)
			buf[j+1] = byte(v >> 8)
		}
		payloads[i] = buf
	}

	start := time.Now()
	for i, p := range payloads {
		res, err := client.StoreFileCtx(context.Background(), fmt.Sprintf("clbench-%d-%d.bin", workers, i), p)
		if err != nil {
			fatal(err)
		}
		got, err := client.RetrieveFileCtx(context.Background(), res.URL)
		if err != nil {
			fatal(err)
		}
		if len(got) != len(p) {
			fatal(fmt.Errorf("cluster bench: got %d bytes, want %d", len(got), len(p)))
		}
	}
	return time.Since(start).Seconds()
}

// benchGenerate times draining the bounded-memory workload stream
// with `workers` generation goroutines.
func benchGenerate(workers int, quick bool) float64 {
	users := 4000
	if quick {
		users = 800
	}
	g, err := workload.New(workload.Config{Users: users, PCOnlyUsers: users / 8, Seed: 5})
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	s := g.StreamP(workers)
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n == 0 {
		fatal(fmt.Errorf("generate bench: empty stream"))
	}
	return time.Since(start).Seconds()
}

// analyzeLogs caches the generated trace shared by every analysis
// timing so each worker count folds identical input.
var analyzeLogs struct {
	once sync.Once
	logs []trace.Log
}

// benchAnalyze times the user-sharded analysis fold and merge.
func benchAnalyze(workers int, quick bool) float64 {
	analyzeLogs.once.Do(func() {
		users := 4000
		if quick {
			users = 800
		}
		g, err := workload.New(workload.Config{Users: users, PCOnlyUsers: users / 8, Seed: 6})
		if err != nil {
			fatal(err)
		}
		analyzeLogs.logs = trace.Drain(g.StreamP(0))
	})
	start := time.Now()
	a := core.NewParallelAnalyzer(core.Options{}, workers)
	for _, l := range analyzeLogs.logs {
		a.Add(l)
	}
	final := a.Finish()
	if final.TotalLogs() != int64(len(analyzeLogs.logs)) {
		fatal(fmt.Errorf("analyze bench: folded %d logs, want %d", final.TotalLogs(), len(analyzeLogs.logs)))
	}
	return time.Since(start).Seconds()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsbench:", err)
	os.Exit(1)
}
