// Command mcsload drives a fleet of simulated devices against a
// running mcsserver: each worker stores files sized from the paper's
// Table 2 mixture and retrieves a fraction of them back, exercising
// the live dedup and chunk paths over real HTTP.
//
// Usage:
//
//	mcsserver -meta :8070 -frontends :8081 -log service.log &
//	mcsload -meta http://127.0.0.1:8070 -devices 8 -files 40
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"mcloud/internal/faults"
	"mcloud/internal/metrics"
	"mcloud/internal/randx"
	"mcloud/internal/storage"
	"mcloud/internal/textplot"
	"mcloud/internal/trace"
	"mcloud/internal/tracing"
	"mcloud/internal/workload"
)

func main() {
	var (
		metaURL  = flag.String("meta", "http://127.0.0.1:8070", "metadata server base URL(s), comma-separated primary-first; clients fail over and follow promotions")
		devices  = flag.Int("devices", 4, "concurrent simulated devices")
		files    = flag.Int("files", 20, "files stored per device")
		retr     = flag.Float64("retrieve", 0.3, "fraction of stored files retrieved back")
		dup      = flag.Float64("dup", 0.2, "probability a file duplicates another device's content")
		seed     = flag.Uint64("seed", 1, "workload seed")
		opsURL   = flag.String("ops", "", "mcsserver ops base URL(s), comma-separated (e.g. http://127.0.0.1:8090,http://127.0.0.1:8091); polls every /metrics and shows a merged live dashboard")
		dash     = flag.Duration("dash", time.Second, "dashboard poll interval when -ops is set")
		chaos    = flag.String("chaos", "", `client-side fault scenario, e.g. "mixed10,seed=42": faults are injected into the loaders' own transports (see internal/faults)`)
		maxFail  = flag.Float64("maxfail", 0, "tolerated operation failure rate before a non-zero exit")
		verify   = flag.Bool("verify", true, "after the run, retrieve every acknowledged store and verify it byte-identical")
		parallel = flag.Int("parallel", storage.DefaultParallel, "chunk requests kept in flight per transfer (1 = sequential)")
		waitRep  = flag.Duration("waitrepair", 0, "poll -ops /metrics after the run until mcs_cluster_underreplicated drops to 0, failing at this timeout")
		traceOut = flag.String("tracedump", "", "record client-side trace spans and write them to this file as Export JSON (joinable by mcstrace)")
		traceSmp = flag.Int("tracesample", 1, "with -tracedump, trace every Nth file operation")
	)
	flag.Parse()
	fmt.Printf("mcsload: GOMAXPROCS=%d, %d chunk requests in flight per transfer\n",
		runtime.GOMAXPROCS(0), *parallel)

	scenario, err := faults.ParseScenario(*chaos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcsload:", err)
		os.Exit(2)
	}

	var dashboard *opsDashboard
	if *opsURL != "" {
		dashboard = startDashboard(*opsURL, *dash)
	}

	reg := metrics.NewRegistry()
	cm := storage.NewClientMetrics(reg)

	// The loader is the trace root: client spans carry the sampling
	// decision, servers record every continued trace, and mcstrace
	// joins this dump with the nodes' /debug/traces exports.
	var tracer *tracing.Tracer
	if *traceOut != "" {
		tracer = tracing.New(tracing.Config{Node: "loadgen", Sample: *traceSmp})
	}

	// acked remembers every store the service acknowledged, with the
	// content hash the client computed, for the post-run verification
	// sweep: url -> hex MD5.
	acked := make(map[string]string)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var stored, deduped, retrieved int
	var storeFails, retrFails int
	var bytesUp, bytesDown int64
	start := time.Now()

	for d := 0; d < *devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			// Tag the loader goroutines (and the chunk-window goroutines
			// they spawn) so CPU profiles split client from server work.
			ctx := pprof.WithLabels(context.Background(), pprof.Labels("component", "client"))
			pprof.SetGoroutineLabels(ctx)
			src := randx.Derive(*seed, fmt.Sprintf("loader/%d", d))
			dev := trace.Android
			if src.Bool(1 - workload.AndroidShare) {
				dev = trace.IOS
			}
			cfg := storage.ClientConfig{
				MetaURL:   *metaURL,
				UserID:    uint64(1000 + d),
				DeviceID:  uint64(d),
				Device:    dev,
				SimRTT:    100 * time.Millisecond,
				RetrySeed: *seed,
				Metrics:   cm,
				Parallel:  *parallel,
				Tracer:    tracer,
			}
			if scenario.Enabled() {
				// Each device owns a derived fault stream, so the fault
				// sequence a device sees is reproducible regardless of
				// goroutine interleaving.
				cfg.HTTP = &http.Client{
					Transport: faults.NewTransport(scenario.Derive(fmt.Sprintf("loader/%d", d)), nil),
				}
			}
			client := storage.NewClient(cfg)
			var urls []string
			for i := 0; i < *files; i++ {
				// Duplicated content: a fixed-size, fixed-content file
				// derived from a shared stream so different devices
				// collide (exercises the metadata dedup path). Unique
				// content gets a size from the paper's store mixture,
				// capped to keep the demo quick.
				var size int64
				var content *randx.Source
				if src.Bool(*dup) {
					idx := src.Intn(8)
					size = int64(idx+1) * 384 << 10
					content = randx.Derive(*seed, fmt.Sprintf("shared/%d", idx))
				} else {
					size = int64(src.MixtureExp(workload.StoreSizeAlphas, workload.StoreSizeMus) * float64(1<<20))
					if size > 8<<20 {
						size = 8 << 20
					}
					if size < 4<<10 {
						size = 4 << 10
					}
					content = src.Split()
				}
				data := make([]byte, size)
				for j := range data {
					data[j] = byte(content.Uint64())
				}
				res, err := client.StoreFileCtx(ctx, fmt.Sprintf("d%d-f%d.bin", d, i), data)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mcsload: store: %v\n", err)
					mu.Lock()
					storeFails++
					mu.Unlock()
					continue
				}
				mu.Lock()
				stored++
				if res.Deduplicated {
					deduped++
				}
				bytesUp += res.BytesSent
				acked[res.URL] = storage.SumBytes(data).String()
				mu.Unlock()
				urls = append(urls, res.URL)
			}
			for _, u := range urls {
				if !src.Bool(*retr) {
					continue
				}
				data, err := client.RetrieveFileCtx(ctx, u)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mcsload: retrieve: %v\n", err)
					mu.Lock()
					retrFails++
					mu.Unlock()
					continue
				}
				mu.Lock()
				retrieved++
				bytesDown += int64(len(data))
				mu.Unlock()
			}
		}(d)
	}
	wg.Wait()

	if dashboard != nil {
		dashboard.stop()
	}
	fmt.Printf("mcsload: stored %d files (%d deduplicated server-side), uploaded %.1f MB\n",
		stored, deduped, float64(bytesUp)/(1<<20))
	fmt.Printf("mcsload: retrieved %d files, downloaded %.1f MB\n", retrieved, float64(bytesDown)/(1<<20))
	if storeFails+retrFails > 0 {
		fmt.Printf("mcsload: FAILED %d stores, %d retrieves\n", storeFails, retrFails)
	}
	if rs := cm.Stats(); rs.Retries > 0 || scenario.Enabled() {
		ratio := 0.0
		if rs.Retries > 0 {
			ratio = float64(rs.RetrySuccess) / float64(rs.Retries)
		}
		fmt.Printf("mcsload: resilience: %d retries (%.0f%% recovered), %d give-ups, %d upload resumes, %d chunk re-fetches\n",
			rs.Retries, 100*ratio, rs.GiveUps, rs.Resumes, rs.Refetches)
	}
	fmt.Printf("mcsload: elapsed %v\n", time.Since(start).Round(time.Millisecond))

	// The headline invariant: everything the service acknowledged must
	// come back byte-identical, over a clean (fault-free) connection.
	lost, corrupt := 0, 0
	if *verify && len(acked) > 0 {
		verifier := storage.NewClient(storage.ClientConfig{MetaURL: *metaURL, UserID: 999, DeviceID: 999, Device: trace.PC, Metrics: cm, Parallel: *parallel})
		for url, md5 := range acked {
			data, err := verifier.RetrieveFileCtx(context.Background(), url)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mcsload: verify %s: %v\n", url, err)
				lost++
				continue
			}
			if storage.SumBytes(data).String() != md5 {
				fmt.Fprintf(os.Stderr, "mcsload: verify %s: content mismatch\n", url)
				corrupt++
			}
		}
		fmt.Printf("mcsload: verified %d acknowledged files: %d lost, %d corrupted\n", len(acked), lost, corrupt)
	}

	if dashboard != nil {
		dashboard.render(os.Stdout)
	}

	if tracer != nil {
		spans := tracer.Snapshot(tracing.Filter{})
		ex := tracing.Export{Node: tracer.Node(), Stats: tracer.TracerStats(), Spans: spans}
		f, err := os.Create(*traceOut)
		if err == nil {
			err = json.NewEncoder(f).Encode(ex)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcsload: tracedump: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("mcsload: tracedump: wrote %d spans (%d traces pinned) to %s\n",
			len(spans), ex.Stats.Pinned, *traceOut)
	}

	// Cluster runs: wait for the repair loop to drain the
	// under-replication left behind by injected outages.
	if *waitRep > 0 {
		if *opsURL == "" {
			fmt.Fprintln(os.Stderr, "mcsload: -waitrepair needs -ops to scrape /metrics")
			os.Exit(2)
		}
		probe := &opsDashboard{urls: splitList(*opsURL)}
		deadline := time.Now().Add(*waitRep)
		for {
			vals, err := probe.scrape()
			if err == nil && vals[metrics.Key("mcs_cluster_underreplicated")] == 0 {
				fmt.Println("mcsload: cluster fully replicated (mcs_cluster_underreplicated = 0)")
				break
			}
			if time.Now().After(deadline) {
				under := math.NaN()
				if err == nil {
					under = vals[metrics.Key("mcs_cluster_underreplicated")]
				}
				fmt.Fprintf(os.Stderr, "mcsload: repair did not drain within %v (underreplicated=%v, err=%v)\n", *waitRep, under, err)
				os.Exit(1)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}

	ops := stored + retrieved + storeFails + retrFails
	failRate := 0.0
	if ops > 0 {
		failRate = float64(storeFails+retrFails) / float64(ops)
	}
	if lost > 0 || corrupt > 0 {
		fmt.Fprintf(os.Stderr, "mcsload: INVARIANT VIOLATED: %d lost, %d corrupted acknowledged files\n", lost, corrupt)
		os.Exit(1)
	}
	if failRate > *maxFail {
		fmt.Fprintf(os.Stderr, "mcsload: failure rate %.3f exceeds -maxfail %.3f\n", failRate, *maxFail)
		os.Exit(1)
	}
}

// opsDashboard polls one or more mcsserver ops listeners' /metrics
// endpoints during the run (a sharded metadata plane exposes one per
// node), prints a live status line per tick, and renders the merged
// time series as textplot charts afterwards.
type opsDashboard struct {
	urls     []string
	interval time.Duration
	done     chan struct{}
	finished chan struct{}

	mu      sync.Mutex
	times   []float64 // seconds since start
	rps     []float64
	p99ms   []float64
	hitRate []float64 // cache hit fraction, NaN when no cache
	under   []float64 // mcs_cluster_underreplicated gauge
	sheds   []float64 // cumulative overload sheds across scopes
	metaP99 []float64 // metadata commit p99 (ms), worst shard, NaN before first commit
	walP99  []float64 // metadata WAL fsync-wait p99 (ms), worst shard, NaN when not durable

	// Per-shard metadata series, keyed by the shard label. Shards may
	// appear mid-run (a promotion brings a new node's ops online), so
	// each history is padded with NaN up to the tick it first reported.
	shardP99 map[string][]float64 // commit p99 (ms) by shard
	shardLag map[string][]float64 // standby replication lag (records) by shard
}

func startDashboard(opsURL string, interval time.Duration) *opsDashboard {
	d := &opsDashboard{
		urls:     splitList(opsURL),
		interval: interval,
		done:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	go d.loop()
	return d
}

func (d *opsDashboard) loop() {
	defer close(d.finished)
	start := time.Now()
	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	var prevReqs, prevT float64
	first := true
	for {
		select {
		case <-d.done:
			return
		case <-tick.C:
		}
		vals, err := d.scrape()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcsload: ops poll: %v\n", err)
			continue
		}
		t := time.Since(start).Seconds()
		var reqs float64
		for _, op := range []string{"file-store", "file-retrieve", "chunk-store", "chunk-retrieve"} {
			reqs += vals[metrics.Key("mcs_frontend_requests_total", "op", op)]
		}
		rps := 0.0
		if !first && t > prevT {
			rps = (reqs - prevReqs) / (t - prevT)
		}
		prevReqs, prevT, first = reqs, t, false

		p99 := vals[metrics.Key("mcs_frontend_chunk_seconds", "dir", "store", "device", "all", "quantile", "0.99")]
		hit := math.NaN()
		hits, okH := vals[metrics.Key("mcs_cache_hits_total")]
		misses, okM := vals[metrics.Key("mcs_cache_misses_total")]
		if okH && okM && hits+misses > 0 {
			hit = hits / (hits + misses)
		}
		// Cluster health: without these two a degraded cluster (replicas
		// missing, requests bounced at the door) looks healthy live.
		under := vals[metrics.Key("mcs_cluster_underreplicated")]
		sheds := sumPrefix(vals, "mcs_overload_sheds_total")

		// Metadata plane: commit latency is what every store waits on,
		// and the WAL fsync wait is its durable floor. Series carry a
		// shard label; the status line shows the worst shard and the
		// per-shard histories feed their own charts.
		commitByShard := shardSeries(vals, "mcs_meta_op_seconds", `op="commit"`, `quantile="0.99"`)
		metaP99 := math.NaN()
		for shard, v := range commitByShard {
			commitByShard[shard] = v * 1000
			if math.IsNaN(metaP99) || v*1000 > metaP99 {
				metaP99 = v * 1000
			}
		}
		walP99 := math.NaN()
		for _, v := range shardSeries(vals, "mcs_meta_wal_fsync_seconds", `quantile="0.99"`) {
			if math.IsNaN(walP99) || v*1000 > walP99 {
				walP99 = v * 1000
			}
		}
		lagByShard := shardSeries(vals, "mcs_meta_standby_lag")

		d.mu.Lock()
		d.times = append(d.times, t)
		d.rps = append(d.rps, rps)
		d.p99ms = append(d.p99ms, p99*1000)
		d.hitRate = append(d.hitRate, hit)
		d.under = append(d.under, under)
		d.sheds = append(d.sheds, sheds)
		d.metaP99 = append(d.metaP99, metaP99)
		d.walP99 = append(d.walP99, walP99)
		if d.shardP99 == nil {
			d.shardP99 = make(map[string][]float64)
			d.shardLag = make(map[string][]float64)
		}
		ticks := len(d.times) - 1
		appendShard(d.shardP99, commitByShard, ticks)
		appendShard(d.shardLag, lagByShard, ticks)
		d.mu.Unlock()

		line := fmt.Sprintf("mcsload: [dash] t=%5.1fs rps=%7.1f upload_p99=%7.1fms", t, rps, p99*1000)
		if !math.IsNaN(hit) {
			line += fmt.Sprintf(" cache_hit=%5.1f%%", 100*hit)
		}
		if !math.IsNaN(metaP99) {
			line += fmt.Sprintf(" meta_p99=%5.1fms", metaP99)
		}
		if !math.IsNaN(walP99) {
			line += fmt.Sprintf(" fsync_p99=%5.1fms", walP99)
		}
		line += fmt.Sprintf(" under=%d sheds=%d", int64(under), int64(sheds))
		fmt.Println(line)
	}
}

// scrape polls every ops endpoint and merges the expositions: series
// labeled by shard are disjoint across nodes, plain counters and
// gauges sum, and quantile series keep the worst (highest) value.
func (d *opsDashboard) scrape() (map[string]float64, error) {
	merged := make(map[string]float64)
	var lastErr error
	ok := 0
	for _, u := range d.urls {
		vals, err := d.scrapeOne(u)
		if err != nil {
			lastErr = err
			continue
		}
		ok++
		mergeExposition(merged, vals)
	}
	if ok == 0 {
		return nil, lastErr
	}
	return merged, nil
}

// mergeExposition folds one node's series into merged. A quantile an
// idle node reports as NaN (its histogram is empty) never hides
// another node's value.
func mergeExposition(merged, vals map[string]float64) {
	for k, v := range vals {
		if strings.Contains(k, `quantile="`) {
			if cur, dup := merged[k]; !dup || v > cur || math.IsNaN(cur) {
				merged[k] = v
			}
			continue
		}
		merged[k] += v
	}
}

func (d *opsDashboard) scrapeOne(u string) (map[string]float64, error) {
	resp, err := http.Get(u + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned status %d", resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// splitList parses a comma-separated URL list.
func splitList(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}

// shardSeries collects one metric's per-shard values: every series of
// name carrying all the given label pairs contributes its shard label
// value. Series without a shard label land under "".
func shardSeries(vals map[string]float64, name string, labels ...string) map[string]float64 {
	out := make(map[string]float64)
	prefix := name + "{"
	for k, v := range vals {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		all := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		shard := ""
		if i := strings.Index(k, `shard="`); i >= 0 {
			rest := k[i+len(`shard="`):]
			if j := strings.IndexByte(rest, '"'); j >= 0 {
				shard = rest[:j]
			}
		}
		out[shard] = v
	}
	return out
}

// appendShard folds one tick's per-shard readings into the padded
// histories: shards seen for the first time are back-filled with NaN,
// shards missing this tick record NaN.
func appendShard(hist map[string][]float64, byShard map[string]float64, ticks int) {
	for shard := range byShard {
		if _, ok := hist[shard]; !ok {
			pad := make([]float64, ticks)
			for i := range pad {
				pad[i] = math.NaN()
			}
			hist[shard] = pad
		}
	}
	for shard, h := range hist {
		if v, ok := byShard[shard]; ok {
			hist[shard] = append(h, v)
		} else {
			hist[shard] = append(h, math.NaN())
		}
	}
}

func (d *opsDashboard) stop() {
	close(d.done)
	<-d.finished
}

// render draws the collected series as ASCII charts.
func (d *opsDashboard) render(w *os.File) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.times) < 2 {
		return
	}
	opts := textplot.Options{Width: 64, Height: 10, XLabel: "s since start"}
	plot := func(title string, ys []float64, scale float64) {
		var xs, vs []float64
		for i, v := range ys {
			if !math.IsNaN(v) {
				xs = append(xs, d.times[i])
				vs = append(vs, v*scale)
			}
		}
		if len(xs) < 2 {
			return
		}
		opts.Title = title
		fmt.Fprint(w, textplot.Render(opts, textplot.Series{Xs: xs, Ys: vs}))
	}
	plot("requests/s at the front-ends", d.rps, 1)
	plot("p99 chunk upload latency (ms)", d.p99ms, 1)
	plot("cache hit rate (%)", d.hitRate, 100)
	plot("p99 metadata commit latency (ms)", d.metaP99, 1)
	plot("p99 metadata WAL fsync wait (ms)", d.walP99, 1)
	// Per-shard metadata charts, when the plane is sharded: one commit
	// latency chart per shard, and replication lag for any standby
	// that reported (a flat-zero lag chart is noise, skip it).
	for _, shard := range sortedShards(d.shardP99) {
		if len(d.shardP99) > 1 {
			plot(fmt.Sprintf("p99 metadata commit latency, shard %s (ms)", shard), d.shardP99[shard], 1)
		}
	}
	for _, shard := range sortedShards(d.shardLag) {
		if peak(d.shardLag[shard]) > 0 {
			plot(fmt.Sprintf("metadata standby lag, shard %s (records)", shard), d.shardLag[shard], 1)
		}
	}
	if peak(d.under) > 0 {
		plot("under-replicated chunks", d.under, 1)
	}
	if peak(d.sheds) > 0 {
		plot("overload sheds (cumulative)", d.sheds, 1)
	}
}

// sumPrefix totals every series of a metric across its label sets
// (e.g. mcs_overload_sheds_total{scope="frontend"} + {scope="meta"}).
func sumPrefix(vals map[string]float64, name string) float64 {
	var sum float64
	for k, v := range vals {
		if k == name || (len(k) > len(name) && k[:len(name)] == name && k[len(name)] == '{') {
			sum += v
		}
	}
	return sum
}

// sortedShards returns the map's shard labels in stable order.
func sortedShards(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func peak(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
