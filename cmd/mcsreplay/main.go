// Command mcsreplay closes the measurement loop: it generates a small
// synthetic week, replays every file operation through the real
// storage service (metadata server + front-end over loopback HTTP) in
// compressed wall time with virtual timestamps, and then runs session
// identification over the logs the front-end recorded — verifying that
// the service's own logging reproduces the session structure of the
// source trace.
//
// File sizes are scaled down (default 1/64) so the replay moves real
// bytes without gigabytes of traffic; session structure, operation
// counts and dedup behaviour are unaffected.
//
// Usage:
//
//	mcsreplay -users 40 -scale 64
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"mcloud/internal/randx"
	"mcloud/internal/session"
	"mcloud/internal/storage"
	"mcloud/internal/trace"
	"mcloud/internal/tracing"
	"mcloud/internal/workload"
)

func main() {
	var (
		users    = flag.Int("users", 40, "mobile users in the replayed week")
		seed     = flag.Uint64("seed", 1, "workload seed")
		scale    = flag.Int64("scale", 64, "divide file sizes by this factor for the replay")
		traceSmp = flag.Int("tracesample", 8, "trace every Nth replayed operation and report the slowest (0 disables tracing)")
	)
	flag.Parse()

	// 1. Generate the source trace.
	g, err := workload.New(workload.Config{Users: *users, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	srcLogs := g.Generate()
	fmt.Printf("source trace: %d logs\n", len(srcLogs))

	// 2. Bring up the service.
	store := storage.NewMemStore()
	meta := storage.NewMetadata()
	collector := &storage.Collector{}
	var tracer *tracing.Tracer
	if *traceSmp > 0 {
		tracer = tracing.New(tracing.Config{Node: "replay", Sample: *traceSmp})
	}
	fe := storage.NewFrontEnd(storage.FrontEndConfig{Store: store, Meta: meta, Sink: collector, Tracer: tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: fe.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	meta.AddFrontEnd("http://" + ln.Addr().String())
	metaLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	metaSrv := &http.Server{Handler: meta.Handler()}
	go metaSrv.Serve(metaLn)
	defer metaSrv.Close()
	metaURL := "http://" + metaLn.Addr().String()

	// 3. Replay: reconstruct (file op -> size) from the trace and
	//    drive the protocol with virtual timestamps.
	type fileOp struct {
		at    time.Time
		log   trace.Log
		bytes int64 // size reassembled from the chunk records
	}
	var ops []fileOp
	// Chunk records follow their file operation in per-user time
	// order; attribute each chunk to the latest matching operation of
	// the same user, device and direction.
	type key struct {
		user, device uint64
		store        bool
	}
	lastOp := map[key]int{}
	for _, l := range srcLogs {
		k := key{user: l.UserID, device: l.DeviceID, store: l.Type.Store()}
		switch {
		case l.Type.FileOp():
			ops = append(ops, fileOp{at: l.Time, log: l})
			lastOp[k] = len(ops) - 1
		case l.Type.Chunk():
			if idx, ok := lastOp[k]; ok {
				ops[idx].bytes += l.Bytes
			}
		}
	}

	ctx := context.Background()
	wallStart := time.Now()
	content := randx.New(*seed)
	urls := map[uint64][]string{} // per-user stored URLs for retrievals
	var allURLs []string          // global catalog: URL-shared content
	var replayed, storeOps, retrOps, dedups, skipped int
	var bytesMoved int64

	for _, op := range ops {
		virtual := op.at
		client := storage.NewClient(storage.ClientConfig{
			MetaURL:  metaURL,
			UserID:   op.log.UserID,
			DeviceID: op.log.DeviceID,
			Device:   op.log.Device,
			SimRTT:   op.log.RTT,
			Proxied:  op.log.Proxied,
			SimClock: func() time.Time { return virtual },
			Tracer:   tracer,
		})
		size := op.bytes / *scale
		if size < 4<<10 {
			size = 4 << 10
		}
		if op.log.Type == trace.FileStore {
			data := make([]byte, size)
			cs := content.Split()
			for j := range data {
				data[j] = byte(cs.Uint64())
			}
			res, err := client.StoreFileCtx(ctx, fmt.Sprintf("u%d-%d.bin", op.log.UserID, replayed), data)
			if err != nil {
				fatal(err)
			}
			if res.Deduplicated {
				dedups++
			}
			urls[op.log.UserID] = append(urls[op.log.UserID], res.URL)
			allURLs = append(allURLs, res.URL)
			bytesMoved += res.BytesSent
			storeOps++
		} else {
			// Retrieve one of the user's stored files, or fall back to
			// the global catalog (the content-distribution pattern:
			// URLs shared by other users, §3.2.1).
			pool := urls[op.log.UserID]
			if len(pool) == 0 {
				pool = allURLs
			}
			if len(pool) == 0 {
				skipped++ // nothing stored service-wide yet
				continue
			}
			url := pool[int(op.log.DeviceID+uint64(replayed))%len(pool)]
			data, err := client.RetrieveFileCtx(ctx, url)
			if err != nil {
				fatal(err)
			}
			bytesMoved += int64(len(data))
			retrOps++
		}
		replayed++
	}
	fmt.Printf("replayed %d file operations (%d stores, %d retrieves, %d dedup hits, %d skipped) in %v\n",
		replayed, storeOps, retrOps, dedups, skipped, time.Since(wallStart).Round(time.Millisecond))
	fmt.Printf("bytes moved over HTTP: %.1f MB (sizes scaled 1/%d)\n", float64(bytesMoved)/(1<<20), *scale)

	// 4. Compare the session structure: source trace vs service logs.
	cut := func(logs []trace.Log) session.Stats {
		id := session.NewIdentifier(0)
		for _, l := range logs {
			id.Add(l)
		}
		return session.Summarize(id.Sessions())
	}
	src := cut(srcLogs)
	svc := cut(collector.Logs())
	fmt.Printf("\n%-22s %10s %10s\n", "", "source", "replayed")
	fmt.Printf("%-22s %10d %10d\n", "sessions", src.Total, svc.Total)
	fmt.Printf("%-22s %10d %10d\n", "store-only", src.ByClass[session.StoreOnly], svc.ByClass[session.StoreOnly])
	fmt.Printf("%-22s %10d %10d\n", "retrieve-only", src.ByClass[session.RetrieveOnly], svc.ByClass[session.RetrieveOnly])
	fmt.Printf("%-22s %10d %10d\n", "mixed", src.ByClass[session.Mixed], svc.ByClass[session.Mixed])
	fmt.Printf("%-22s %10d %10d\n", "file operations", src.TotalOps, svc.TotalOps)

	if svc.Total == 0 {
		fmt.Fprintln(os.Stderr, "mcsreplay: no sessions recovered from the service logs")
		os.Exit(2)
	}
	// The replay skips retrievals that had nothing to fetch, so the
	// counts may differ slightly; flag big structural divergence.
	if ratio := float64(svc.Total) / float64(src.Total); ratio < 0.85 || ratio > 1.15 {
		fmt.Fprintf(os.Stderr, "mcsreplay: session count diverged (ratio %.2f)\n", ratio)
		os.Exit(2)
	}
	fmt.Println("\nsession structure recovered from the live service's own request logs")

	// 5. Latency diagnosis from the in-process traces: both sides of
	//    every sampled operation were recorded by the same tracer, so a
	//    single export joins end-to-end.
	if tracer != nil {
		ex := tracing.Export{Node: tracer.Node(), Stats: tracer.TracerStats(), Spans: tracer.Snapshot(tracing.Filter{})}
		diag := tracing.Diagnose(tracing.Join([]tracing.Export{ex}))
		complete := 0
		for _, c := range diag.Chunks {
			if c.Complete {
				complete++
			}
		}
		fmt.Printf("\ntraced 1-in-%d operations: %d traces, %d chunk transfers diagnosed (%d complete)\n",
			*traceSmp, diag.Traces, len(diag.Chunks), complete)
		for _, st := range tracing.StageQuantiles(diag.Chunks) {
			fmt.Printf("  %-8s p99: total %v = queue %v + disk %v + fanout %v + network %v + retry %v (n=%d)\n",
				st.Dir, st.P99["total"].Round(time.Microsecond), st.P99["queue"].Round(time.Microsecond),
				st.P99["disk"].Round(time.Microsecond), st.P99["fanout"].Round(time.Microsecond),
				st.P99["network"].Round(time.Microsecond), st.P99["retry"].Round(time.Microsecond), st.Count)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsreplay:", err)
	os.Exit(1)
}
