package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/dist"
	"mcloud/internal/randx"
	"mcloud/internal/storage"
)

// metricDef names one metric. The end-to-end table is the program's
// copy of BENCHMARK.json (a test keeps them equal); bound is the share
// of the baseline median by which the metric may get worse.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"store_p50_ms", "ms", "lower", 0.25},
	{"store_p95_ms", "ms", "lower", 0.25},
	{"retrieve_p50_ms", "ms", "lower", 0.25},
	{"retrieve_p95_ms", "ms", "lower", 0.25},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerExtra lists the per-layer metrics beyond the four per layer.
var perLayerExtra = []metricDef{
	{"cache_hit_rate", "ratio", "higher", 0},
	{"cache_byte_hit_rate", "ratio", "higher", 0},
	{"dedup_hit_rate", "ratio", "higher", 0},
	{"disk_fsyncs_per_put", "ratio", "lower", 0},
	{"wal_fsyncs_per_commit", "ratio", "lower", 0},
	{"client_retries_per_op", "ratio", "lower", 0},
	{"repl_underreplicated_after", "count", "lower", 0},
	{"traced_ops_per_s", "1/s", "higher", 0},
}

func perLayerDefs() []metricDef {
	var out []metricDef
	for _, l := range layerNames {
		out = append(out,
			metricDef{l + "_calls_per_op", "count", "lower", 0},
			metricDef{l + "_self_ms_per_op", "ms", "lower", 0},
			metricDef{l + "_share", "ratio", "lower", 0},
			metricDef{l + "_errors", "count", "lower", 0})
	}
	return append(out, perLayerExtra...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of timed operations behind a latency, and
	// Source where they ran when the workload's own mix has none.
	Samples int    `json:"samples,omitempty"`
	Source  string `json:"source,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"measured_s"`
	WallS     float64           `json:"wall_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Counts    map[string]int64  `json:"counts"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	Ungated   map[string]metric `json:"ungated"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// stored is a file the service acknowledged: the operation that
// produced its content, and its URL.
type stored struct {
	op  op
	url string
}

type sample struct {
	retrieve   bool
	start, end time.Time
	bytes      int64
}

type device struct {
	client    *storage.Client
	stream    *opStream
	latest    []stored // per rank: the file a retrieve at that rank fetches
	buf, chk  []byte
	cur       atomic.Uint32 // root span of the operation in flight (traced runs)
	samples   []sample
	acked     []stored
	retrieves int
}

// runner drives one workload against one stack.
type runner struct {
	spec *spec
	seed uint64
	pool []byte
	st   *stack

	devs   []*device
	seeded []stored

	mu        sync.Mutex
	attempted int
	failures  []string
	stores    int64 // acked stores, dedup hits included
	dedupHits int64
	userBytes int64 // logical bytes of acked stores
	chunks    int   // distinct chunks acked: what every replica must hold
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// store uploads o's content through c and accounts for the ack.
func (r *runner) store(c *storage.Client, buf []byte, o op, cur *atomic.Uint32) (stored, time.Time, time.Time, bool) {
	data := fill(buf, r.pool, o)
	name := fmt.Sprintf("f-%x", o.stamp)
	var sp *liveSpan
	if r.st.tr != nil && cur != nil {
		sp = r.st.tr.start(spClientStore, 0)
		cur.Store(sp.ID)
	}
	start := time.Now()
	res, err := c.StoreFile(name, data)
	end := time.Now()
	if sp != nil {
		sp.end(err != nil)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("store %s (%d bytes): %v", name, o.size, err))
		return stored{}, start, end, false
	}
	r.stores++
	r.userBytes += o.size
	if res.Deduplicated {
		r.dedupHits++
	} else {
		r.chunks += int((o.size + storage.ChunkSize - 1) / storage.ChunkSize)
	}
	return stored{o, res.URL}, start, end, true
}

// retrieve downloads f through c and verifies it: length and chunk
// stamps always, every byte when full is set. The check runs after
// the clock stops.
func (r *runner) retrieve(c *storage.Client, chk []byte, f stored, full bool, cur *atomic.Uint32) (time.Time, time.Time, bool) {
	var sp *liveSpan
	if r.st.tr != nil && cur != nil {
		sp = r.st.tr.start(spClientRetrieve, 0)
		cur.Store(sp.ID)
	}
	start := time.Now()
	got, err := c.RetrieveFile(f.url)
	end := time.Now()
	if sp != nil {
		sp.end(err != nil)
	}
	if err == nil {
		err = checkStamps(got, f.op)
	}
	if err == nil && full && !bytes.Equal(got, fill(chk, r.pool, f.op)) {
		err = fmt.Errorf("content differs from what was stored")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("retrieve %s: %v", f.url, err))
		return start, end, false
	}
	return start, end, true
}

// setUp builds the stack, generates the inputs, stores the seeded
// files and primes every device; it returns the latencies of the
// seeded stores.
func setUp(s *spec, seed uint64, dir string, tr *tracer) (*runner, []time.Duration, error) {
	st, err := openStack(s, dir, tr)
	if err != nil {
		return nil, nil, err
	}
	r := &runner{spec: s, seed: seed, st: st, pool: payloadPool(seed, s.maxSize()), seeded: make([]stored, len(s.sizes))}
	seeder := st.newClient(s, 1, seed, nil)
	buf := make([]byte, s.maxSize())
	var lats []time.Duration
	for _, rank := range s.seeded {
		f, start, end, ok := r.store(seeder, buf, s.seededOp(rank), nil)
		if !ok {
			st.close()
			return nil, nil, fmt.Errorf("set-up: %s", r.failures[0])
		}
		r.seeded[rank] = f
		lats = append(lats, end.Sub(start))
	}
	for d := 0; d < s.devices; d++ {
		dev := &device{stream: newOpStream(s, seed, d), buf: make([]byte, s.maxSize()), chk: make([]byte, s.maxSize())}
		dev.client = st.newClient(s, uint64(1000+d), seed, &dev.cur)
		dev.latest = append([]stored(nil), r.seeded...)
		r.devs = append(r.devs, dev)
		// Prime the device with one round trip of the largest file, so
		// connections, dialect negotiation and the ring fetch are paid
		// here and not by the first measured operations.
		rank := 0
		for i, n := range s.sizes {
			if n > s.sizes[rank] {
				rank = i
			}
		}
		prime := op{kind: opStore, rank: rank, size: s.sizes[rank], stamp: deviceStamp(d, 0)}
		f, _, _, ok := r.store(dev.client, dev.buf, prime, nil)
		if ok {
			dev.acked = append(dev.acked, f)
			_, _, ok = r.retrieve(dev.client, dev.chk, f, true, nil)
		}
		if !ok {
			st.close()
			return nil, nil, fmt.Errorf("set-up: %s", r.failures[0])
		}
	}
	return r, lats, nil
}

// fullCheckEvery is how often a measured retrieve is compared byte
// for byte; the others are checked by length and chunk stamps.
const fullCheckEvery = 16

// loop is one device's closed loop: it waits for each transfer before
// issuing the next, and stops issuing at the deadline.
func (d *device) loop(ctx context.Context, r *runner, deadline time.Time) {
	for ctx.Err() == nil && time.Now().Before(deadline) {
		o := d.stream.next()
		if o.kind == opRetrieve {
			d.retrieves++
			start, end, ok := r.retrieve(d.client, d.chk, d.latest[o.rank], d.retrieves%fullCheckEvery == 0, &d.cur)
			if ok {
				d.samples = append(d.samples, sample{true, start, end, o.size})
			}
			continue
		}
		f, start, end, ok := r.store(d.client, d.buf, o, &d.cur)
		if ok {
			d.latest[o.rank] = f
			d.acked = append(d.acked, f)
			d.samples = append(d.samples, sample{false, start, end, o.size})
		}
	}
}

const sweepSize = 200

// sweep retrieves a seeded sample of the acknowledged files through a
// fresh client and compares every byte.
func (r *runner) sweep(ctx context.Context) []time.Duration {
	var acked []stored
	for _, f := range r.seeded {
		if f.url != "" {
			acked = append(acked, f)
		}
	}
	for _, d := range r.devs {
		acked = append(acked, d.acked...)
	}
	rng := randx.Derive(r.seed, r.spec.name+"/sweep")
	verifier := r.st.newClient(r.spec, 999, r.seed, nil)
	chk := make([]byte, r.spec.maxSize())
	var lats []time.Duration
	for _, i := range rng.Perm(len(acked))[:min(sweepSize, len(acked))] {
		if ctx.Err() != nil {
			break
		}
		if start, end, ok := r.retrieve(verifier, chk, acked[i], true, nil); ok {
			lats = append(lats, end.Sub(start))
		}
	}
	return lats
}

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	i := int(p*float64(len(sorted))+0.999999) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)]) / 1e6
}

// tail is the highest percentile with at least ten samples beyond it.
func tail(n int) (string, float64) {
	for _, t := range []struct {
		name string
		p    float64
	}{{"p999", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if float64(n)*(1-t.p) >= 10 {
			return t.name, t.p
		}
	}
	return "p50", 0.5
}

// A run sets up several times over and reports the median: at least
// minSetUps times, and while set-up is cheap (so that its time is
// mostly noise) until setUpBudget is spent or maxSetUps is reached.
// Four set-ups of bulk_download also make 256 store samples.
const (
	minSetUps   = 4
	maxSetUps   = 21
	setUpBudget = 2 * time.Second
)

// setUpRounds sets up until the median is worth reporting and keeps
// the last stack; it returns every round's time and seeded-store
// latencies. once is for runs that do not report set-up time.
func setUpRounds(s *spec, seed uint64, root string, tr *tracer, once bool) (r *runner, setupS []float64, seedLats []time.Duration, err error) {
	var spent time.Duration
	for i := 0; i < minSetUps || (i < maxSetUps && spent < setUpBudget); i++ {
		if r != nil {
			if err := r.st.close(); err != nil {
				return nil, nil, nil, err
			}
			if err := os.RemoveAll(r.st.dir); err != nil {
				return nil, nil, nil, err
			}
		}
		start := time.Now()
		var lats []time.Duration
		r, lats, err = setUp(s, seed, filepath.Join(root, fmt.Sprintf("%s-%d", s.name, i)), tr)
		if err != nil {
			return nil, nil, nil, err
		}
		spent += time.Since(start)
		setupS = append(setupS, time.Since(start).Seconds())
		seedLats = append(seedLats, lats...)
		if once {
			break
		}
	}
	return r, setupS, seedLats, nil
}

// window is what the run observed at both ends of the measured window.
type window struct {
	t0, t1           time.Time
	from, to         int64 // the same instants on the tracer's clock
	c0, c1           counters
	stores, dedupHit int64 // acknowledged inside the window
}

// measure runs the devices through warm-up (a tenth of the window,
// discarded) and the measured window.
func (r *runner) measure(ctx context.Context, seconds float64) window {
	var w window
	w.t0 = time.Now().Add(time.Duration(seconds / 10 * float64(time.Second)))
	w.t1 = w.t0.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, d := range r.devs {
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			d.loop(ctx, r, w.t1)
		}(d)
	}
	snap := func() (counters, int64, int64, int64) {
		r.mu.Lock()
		defer r.mu.Unlock()
		var at int64
		if r.st.tr != nil {
			at = r.st.tr.now()
		}
		return r.st.counters(), r.stores, r.dedupHits, at
	}
	sleepUntil(ctx, w.t0)
	c0, stores0, dedup0, from := snap()
	sleepUntil(ctx, w.t1)
	c1, stores1, dedup1, to := snap()
	wg.Wait()
	w.c0, w.c1, w.from, w.to = c0, c1, from, to
	w.stores, w.dedupHit = stores1-stores0, dedup1-dedup0
	return w
}

// runWorkload is one run: set-up, warm-up and the measured window,
// the verification sweep, and the size of what the closed stack left
// on disk.
func runWorkload(ctx context.Context, s *spec, seed uint64, seconds float64, traced bool, root string, spansPath string) (*result, error) {
	began := time.Now()
	res := &result{Workload: s.name, Seed: seed, Traced: traced, Seconds: seconds,
		Counts: map[string]int64{}, Ungated: map[string]metric{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set-up time is an untraced metric, and smoke runs are short.
	r, setupS, seedLats, err := setUpRounds(s, seed, root, tr, traced || seconds < 1)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.st.dir)

	w := r.measure(ctx, seconds)
	if err := ctx.Err(); err != nil {
		r.st.close()
		return nil, err
	}

	var storeLats, retrieveLats []time.Duration
	var ops, bytesMoved int64
	for _, d := range r.devs {
		for _, sm := range d.samples {
			if sm.start.Before(w.t0) || sm.end.After(w.t1) {
				continue
			}
			ops++
			bytesMoved += sm.bytes
			if sm.retrieve {
				retrieveLats = append(retrieveLats, sm.end.Sub(sm.start))
			} else {
				storeLats = append(storeLats, sm.end.Sub(sm.start))
			}
		}
	}
	res.Counts["measured_ops"] = ops
	res.Counts["measured_stores"] = int64(len(storeLats))
	res.Counts["measured_retrieves"] = int64(len(retrieveLats))
	res.Counts["measured_bytes"] = bytesMoved

	sweepLats := r.sweep(ctx)
	res.Counts["sweep_retrieves"] = int64(len(sweepLats))
	underreplicated := r.st.waitReplicated(ctx, r.chunks)
	if underreplicated > 0 {
		r.fail("%d replicas still missing after quiesce", underreplicated)
	}
	if err := r.st.close(); err != nil {
		r.fail("closing the stack: %v", err)
	}
	onDisk, err := r.st.storedBytes()
	if err != nil {
		return nil, err
	}
	res.Counts["acked_stores"] = r.stores
	res.Counts["dedup_hits"] = r.dedupHits
	res.Counts["user_bytes"] = r.userBytes
	res.Counts["stored_bytes"] = onDisk

	// A latency comes from the measured window when the workload's mix
	// has that operation, else from the transfers of that kind the run
	// makes anyway: the set-up stores, the sweep's retrieves.
	storeSrc, retrieveSrc := "", ""
	if !s.stores() {
		storeLats, storeSrc = seedLats, "set-up stores"
	}
	if !s.retrieves() {
		retrieveLats, retrieveSrc = sweepLats, "sweep retrieves"
	}
	opsPerS := float64(ops) / seconds
	lat := map[string]metric{}
	for _, k := range []struct {
		name string
		lats []time.Duration
		src  string
	}{{"store", storeLats, storeSrc}, {"retrieve", retrieveLats, retrieveSrc}} {
		if len(k.lats) == 0 {
			r.fail("no %s completed", k.name)
			continue
		}
		sort.Slice(k.lats, func(i, j int) bool { return k.lats[i] < k.lats[j] })
		lat[k.name+"_p50_ms"] = metric{percentile(k.lats, 0.50), "ms", len(k.lats), k.src}
		lat[k.name+"_p95_ms"] = metric{percentile(k.lats, 0.95), "ms", len(k.lats), k.src}
		tn, tp := tail(len(k.lats))
		res.Ungated[k.name+"_tail_"+tn+"_ms"] = metric{percentile(k.lats, tp), "ms", len(k.lats), k.src}
	}
	res.Ungated["goodput_mbps"] = metric{Value: float64(bytesMoved) / mb / seconds, Unit: "MB/s"}
	res.Ungated["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}

	if traced {
		spans := tr.snapshot()
		sum := analyze(spans, w.from, w.to)
		res.PerLayer = map[string]metric{}
		units := map[string]string{}
		for _, d := range perLayerDefs() {
			units[d.name] = d.unit
		}
		put := func(name string, v float64) { res.PerLayer[name] = metric{Value: v, Unit: units[name]} }
		for name, v := range sum.layerMetrics() {
			put(name, v)
		}
		c0, c1 := w.c0, w.c1
		hits, misses := c1.cache.Hits-c0.cache.Hits, c1.cache.Misses-c0.cache.Misses
		hitB, missB := c1.cache.HitBytes-c0.cache.HitBytes, c1.cache.MissBytes-c0.cache.MissBytes
		put("cache_hit_rate", ratio(hits, hits+misses))
		put("cache_byte_hit_rate", ratio(hitB, hitB+missB))
		put("dedup_hit_rate", ratio(w.dedupHit, w.stores))
		put("disk_fsyncs_per_put", ratio(c1.diskFsyncs-c0.diskFsyncs, c1.puts-c0.puts))
		put("wal_fsyncs_per_commit", ratio(c1.walFsync-c0.walFsync, c1.walAppends-c0.walAppends))
		put("client_retries_per_op", ratio(c1.retries-c0.retries, ops))
		put("repl_underreplicated_after", float64(underreplicated))
		put("traced_ops_per_s", opsPerS)
		res.Counts["traced_ops"] = int64(sum.ops)
		if spansPath != "" {
			if err := writeSpans(spansPath, spans, sum); err != nil {
				return nil, err
			}
		}
	} else {
		res.EndToEnd = lat
		res.EndToEnd["ops_per_s"] = metric{Value: opsPerS, Unit: "1/s", Samples: int(ops)}
		res.EndToEnd["stored_bytes_per_user_byte"] = metric{Value: ratio(onDisk, r.userBytes), Unit: "ratio"}
		res.EndToEnd["setup_s"] = metric{Value: dist.Median(dist.SortedCopy(setupS)), Unit: "s", Samples: len(setupS)}
	}

	res.Attempted, res.Failed = r.attempted, len(r.failures)
	res.Correct = res.Failed == 0
	res.Failures = r.failures[:min(len(r.failures), 10)]
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kbs float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kbs)
			return kbs / 1024
		}
	}
	return 0
}
