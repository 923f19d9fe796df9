// Benchmarks: one per table and figure of the paper's evaluation.
// Each benchmark regenerates its experiment from the synthetic dataset
// (or the TCP simulator for the §4 packet-level figures) and reports
// the headline quantities as custom metrics, so `go test -bench .`
// prints the same rows/series the paper reports next to the cost of
// producing them.
package mcloud_test

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mcloud/internal/core"
	"mcloud/internal/dist"
	"mcloud/internal/metrics"
	"mcloud/internal/randx"
	"mcloud/internal/report"
	"mcloud/internal/session"
	"mcloud/internal/storage"
	"mcloud/internal/tcpsim"
	"mcloud/internal/trace"
	"mcloud/internal/workload"
)

// benchScale is the population used by the figure benchmarks; large
// enough for stable statistics, small enough for -bench runs.
const (
	benchUsers   = 3000
	benchPCUsers = 1000
	benchSeed    = 2016
)

var (
	benchOnce sync.Once
	benchGen  *workload.Generator
	benchLogs []trace.Log
	benchRes  core.Results
)

// benchData generates and analyzes the shared dataset once.
func benchData(b *testing.B) (*workload.Generator, []trace.Log, core.Results) {
	b.Helper()
	benchOnce.Do(func() {
		g, err := workload.New(workload.Config{
			Users: benchUsers, PCOnlyUsers: benchPCUsers, Seed: benchSeed,
		})
		if err != nil {
			panic(err)
		}
		benchGen = g
		benchLogs = g.Generate()
		a := core.NewAnalyzer(core.Options{Start: g.Config().Start, Days: g.Config().Days})
		for _, l := range benchLogs {
			a.Add(l)
		}
		benchRes, err = a.Run()
		if err != nil {
			panic(err)
		}
	})
	return benchGen, benchLogs, benchRes
}

// BenchmarkGenerate measures dataset generation (§2.2 workload).
func BenchmarkGenerate(b *testing.B) {
	g, logs, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		small, err := workload.New(workload.Config{Users: 200, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if got := small.Generate(); len(got) == 0 {
			b.Fatal("empty dataset")
		}
	}
	b.ReportMetric(float64(len(logs)), "logs")
	b.ReportMetric(float64(len(logs))/float64(g.Population()), "logs/user")
}

// BenchmarkFigure1 regenerates the workload temporal pattern.
func BenchmarkFigure1(b *testing.B) {
	_, logs, res := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.NewAnalyzer(core.Options{})
		for _, l := range logs[:len(logs)/10] {
			a.Add(l)
		}
	}
	b.ReportMetric(res.Workload.FileRatio(), "storedPerRetrievedFile")
	b.ReportMetric(res.Workload.VolumeRatio(), "retrPerStoreVolume")
	b.ReportMetric(float64(res.Workload.PeakHourOfDay), "peakHour")
}

// BenchmarkFigure3 fits the inter-operation Gaussian mixture.
func BenchmarkFigure3(b *testing.B) {
	_, logs, res := benchData(b)

	gaps := session.InterOpGaps(logs)
	var lg []float64
	for _, g := range gaps {
		if g >= 1 {
			lg = append(lg, math.Log10(g))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitGaussianMixture(lg, 2, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.InterOp.InSessionMeanSec(), "inSession_s")
	b.ReportMetric(res.InterOp.InterSessionMeanSec()/86400, "interSession_days")
	b.ReportMetric(res.InterOp.ValleySec, "valley_s")
}

// BenchmarkSessionClassification cuts sessions (§3.1.1).
func BenchmarkSessionClassification(b *testing.B) {
	_, logs, res := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := session.NewIdentifier(0)
		for _, l := range logs {
			id.Add(l)
		}
		if got := id.Sessions(); len(got) == 0 {
			b.Fatal("no sessions")
		}
	}
	b.ReportMetric(res.Sessions.StoreOnlyFrac, "storeOnlyFrac")
	b.ReportMetric(res.Sessions.RetrieveOnlyFrac, "retrieveOnlyFrac")
	b.ReportMetric(res.Sessions.MixedFrac, "mixedFrac")
}

// BenchmarkFigure4 computes the burstiness CDFs.
func BenchmarkFigure4(b *testing.B) {
	_, logs, res := benchData(b)
	id := session.NewIdentifier(0)
	for _, l := range logs {
		id.Add(l)
	}
	sessions := id.Sessions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var vals []float64
		for j := range sessions {
			if sessions[j].FileOps > 1 {
				vals = append(vals, sessions[j].NormalizedOperatingTime())
			}
		}
		dist.NewECDF(vals)
	}
	b.ReportMetric(res.Sessions.BurstAll.P(0.1), "P_opTimeBelow0.1")
	b.ReportMetric(res.Sessions.BurstOver20.Quantile(0.5), "medianOver20ops")
}

// BenchmarkFigure5 computes the session-size bins.
func BenchmarkFigure5(b *testing.B) {
	_, _, res := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The bin computation is part of the session analysis; rerun
		// the linear fit over the bins as the kernel.
		var xs, ys []float64
		for _, bin := range res.Sessions.StoreBins {
			xs = append(xs, float64(bin.Files))
			ys = append(ys, bin.MedMB)
		}
		dist.LinearFit(xs, ys)
	}
	b.ReportMetric(res.Sessions.POneOp, "P_oneOp")
	b.ReportMetric(res.Sessions.POver20Ops, "P_over20ops")
	b.ReportMetric(res.Sessions.StoreSlopeMB, "storeSlope_MBperFile")
	b.ReportMetric(res.Sessions.OneFileRetrieveMeanMB, "oneFileRetrMean_MB")
}

// BenchmarkFigure6Table2 fits the average-file-size mixtures.
func BenchmarkFigure6Table2(b *testing.B) {
	_, logs, res := benchData(b)
	comps := res.FileSize.StoreMixture.Components
	var wSmall, mSmall float64
	for _, c := range comps {
		if c.Mu < 3 {
			wSmall += c.Alpha
			mSmall += c.Alpha * c.Mu
		}
	}
	rt := res.FileSize.RetrieveMixture.Components[len(res.FileSize.RetrieveMixture.Components)-1]

	id := session.NewIdentifier(0)
	for _, l := range logs {
		id.Add(l)
	}
	var store []float64
	for _, s := range id.Sessions() {
		if s.FileOps > 0 && s.Class() == session.StoreOnly {
			store = append(store, s.AvgFileSize()/(1<<20))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitExpMixture(store, 3, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(wSmall, "storePhotoAlpha")
	if wSmall > 0 {
		b.ReportMetric(mSmall/wSmall, "storePhotoMu_MB")
	}
	b.ReportMetric(rt.Alpha, "retrTailAlpha")
	b.ReportMetric(rt.Mu, "retrTailMu_MB")
}

// BenchmarkFigure7 computes the per-user volume-ratio distributions.
func BenchmarkFigure7(b *testing.B) {
	_, logs, res := benchData(b)
	up := 0
	for _, r := range res.Usage.RatiosMobileOnly {
		if r > 5 {
			up++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := map[uint64]int64{}
		retr := map[uint64]int64{}
		for _, l := range logs {
			switch l.Type {
			case trace.ChunkStore:
				store[l.UserID] += l.Bytes
			case trace.ChunkRetrieve:
				retr[l.UserID] += l.Bytes
			}
		}
	}
	b.ReportMetric(float64(up)/float64(len(res.Usage.RatiosMobileOnly)), "mobileStorageDominant")
}

// BenchmarkTable3 classifies users into the four types.
func BenchmarkTable3(b *testing.B) {
	_, logs, res := benchData(b)
	mo := res.Usage.Table3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.NewAnalyzer(core.Options{})
		for _, l := range logs {
			a.Add(l)
		}
	}
	b.ReportMetric(mo["upload-only"]["mobile-only"].UserFrac, "uploadOnlyShare")
	b.ReportMetric(mo["download-only"]["mobile-only"].UserFrac, "downloadOnlyShare")
	b.ReportMetric(mo["occasional"]["mobile-only"].UserFrac, "occasionalShare")
	b.ReportMetric(mo["mixed"]["mobile-only"].UserFrac, "mixedShare")
}

// BenchmarkFigure8 computes engagement curves.
func BenchmarkFigure8(b *testing.B) {
	g, logs, res := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anchor := g.Config().Start
		active := map[uint64]uint8{}
		for _, l := range logs {
			d := int(l.Time.Sub(anchor) / (24 * time.Hour))
			if d >= 0 && d < 8 {
				active[l.UserID] |= 1 << uint(d)
			}
		}
	}
	b.ReportMetric(res.Engagement.NeverReturn[core.StratumOneDevice], "oneDevNeverReturn")
	b.ReportMetric(res.Engagement.NeverReturn[core.StratumMultiDevice], "multiDevNeverReturn")
}

// BenchmarkFigure9 computes retrieval-after-upload curves.
func BenchmarkFigure9(b *testing.B) {
	_, logs, res := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := map[uint64]time.Time{}
		for _, l := range logs {
			if l.Type == trace.FileStore {
				if t, ok := first[l.UserID]; !ok || l.Time.Before(t) {
					first[l.UserID] = l.Time
				}
			}
		}
	}
	if v, ok := res.Engagement.NeverRetrieve[core.StratumOneDevice]; ok {
		b.ReportMetric(v, "oneDevNeverRetrieve")
	}
	if mp, ok := res.Engagement.RetrievalByDay[core.StratumMobileAndPC]; ok && len(mp) > 0 {
		b.ReportMetric(mp[0], "mobilePCDay0Retrieval")
	}
}

// BenchmarkFigure10 fits the stretched-exponential activity models.
func BenchmarkFigure10(b *testing.B) {
	_, _, res := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitStretchedExpRank(res.Activity.StoreCounts, 0.05, 1.2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Activity.StoreSE.C, "storeC")
	b.ReportMetric(res.Activity.RetrieveSE.C, "retrieveC")
	b.ReportMetric(res.Activity.StoreSE.R2, "storeR2")
}

// BenchmarkFigure12 measures the chunk-time distributions by device.
func BenchmarkFigure12(b *testing.B) {
	_, logs, res := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var android []float64
		for _, l := range logs {
			if l.Type == trace.ChunkStore && l.Device == trace.Android {
				android = append(android, l.TransferTime().Seconds())
			}
		}
		dist.NewECDF(android)
	}
	b.ReportMetric(res.Perf.MedianUpload(trace.Android).Seconds(), "androidMedUpload_s")
	b.ReportMetric(res.Perf.MedianUpload(trace.IOS).Seconds(), "iosMedUpload_s")
}

// BenchmarkFigure13 replays the sample storage flows through the
// simulator (sequence-number / inflight time series).
func BenchmarkFigure13(b *testing.B) {
	var androidSamples, iosSamples int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dev := range []tcpsim.DeviceProfile{tcpsim.AndroidProfile, tcpsim.IOSProfile} {
			res, err := tcpsim.SimulateUpload(tcpsim.TransferConfig{
				Device: dev, Server: tcpsim.DefaultServer,
				FileSize: 4 << 20, RTT: 100 * time.Millisecond, Seed: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			if dev.Name == "android" {
				androidSamples = len(res.Flow.Samples)
			} else {
				iosSamples = len(res.Flow.Samples)
			}
		}
	}
	b.ReportMetric(float64(androidSamples), "androidRounds")
	b.ReportMetric(float64(iosSamples), "iosRounds")
}

// BenchmarkFigure14 computes the RTT distribution.
func BenchmarkFigure14(b *testing.B) {
	_, logs, res := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rtts []float64
		for _, l := range logs {
			if l.Type.Chunk() && l.Device.Mobile() && !l.Proxied {
				rtts = append(rtts, l.RTT.Seconds())
			}
		}
		dist.NewECDF(rtts)
	}
	b.ReportMetric(res.Perf.RTT.Quantile(0.5)*1000, "medianRTT_ms")
}

// BenchmarkFigure15 estimates the sending-window distribution.
func BenchmarkFigure15(b *testing.B) {
	_, logs, res := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var swnd []float64
		for _, l := range logs {
			if l.Type == trace.ChunkStore && l.Bytes == 512<<10 && !l.Proxied && l.Device.Mobile() {
				if tt := l.TransferTime().Seconds(); tt > 0 {
					swnd = append(swnd, float64(l.Bytes)*l.RTT.Seconds()/tt)
				}
			}
		}
		dist.NewECDF(swnd)
	}
	b.ReportMetric(res.Perf.SWnd.P(66*1024), "P_swndBelow64KB")
}

// BenchmarkFigure16 runs the idle-time dissection on the simulator.
func BenchmarkFigure16(b *testing.B) {
	var res core.IdleTimeResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.RunIdleTimeStudy(core.IdleTimeConfig{Flows: 20, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Classes["android/storage"].RestartFrac, "androidRestartFrac")
	b.ReportMetric(res.Classes["ios/storage"].RestartFrac, "iosRestartFrac")
}

// BenchmarkReproduceAll runs the complete comparison (every row of
// EXPERIMENTS.md) once per iteration at a reduced scale.
func BenchmarkReproduceAll(b *testing.B) {
	_, _, res := benchData(b)
	idle, err := core.RunIdleTimeStudy(core.IdleTimeConfig{Flows: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rows := report.Compare(res, idle)
	ok, total := report.Summary(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Compare(res, idle)
	}
	b.ReportMetric(float64(ok), "rowsInBand")
	b.ReportMetric(float64(total), "rowsTotal")
}

// --- Ablations: the design-choice experiments from §3.3/§4.3 ---------

// BenchmarkAblationChunkSize sweeps the chunk size (the §4.3 "use
// larger chunks" remedy).
func BenchmarkAblationChunkSize(b *testing.B) {
	sizes := []int64{512 << 10, 2 << 20}
	var thr [2]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, cs := range sizes {
			res, err := tcpsim.SimulateUpload(tcpsim.TransferConfig{
				Device: tcpsim.AndroidProfile, Server: tcpsim.DefaultServer,
				FileSize: 10 << 20, ChunkSize: cs,
				RTT: 100 * time.Millisecond, Seed: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			thr[j] = res.Flow.Throughput()
		}
	}
	b.ReportMetric(thr[0]/1024, "kbps_512KB")
	b.ReportMetric(thr[1]/1024, "kbps_2MB")
	b.ReportMetric(thr[1]/thr[0], "speedup")
}

// BenchmarkAblationSSAI toggles slow-start-after-idle.
func BenchmarkAblationSSAI(b *testing.B) {
	var on, off float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, noSSAI := range []bool{false, true} {
			res, err := tcpsim.SimulateUpload(tcpsim.TransferConfig{
				Device: tcpsim.AndroidProfile, Server: tcpsim.DefaultServer,
				FileSize: 10 << 20, RTT: 100 * time.Millisecond,
				NoSSAI: noSSAI, Seed: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			if noSSAI {
				off = res.Flow.Throughput()
			} else {
				on = res.Flow.Throughput()
			}
		}
	}
	b.ReportMetric(off/on, "speedupWithoutSSAI")
}

// BenchmarkAblationWindowScaling toggles the server's 64 KB clamp.
func BenchmarkAblationWindowScaling(b *testing.B) {
	var clamped, scaled float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ws := range []bool{false, true} {
			server := tcpsim.DefaultServer
			server.WindowScaling = ws
			res, err := tcpsim.SimulateUpload(tcpsim.TransferConfig{
				Device: tcpsim.IOSProfile, Server: server,
				FileSize: 10 << 20, RTT: 100 * time.Millisecond, Seed: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			if ws {
				scaled = res.Flow.Throughput()
			} else {
				clamped = res.Flow.Throughput()
			}
		}
	}
	b.ReportMetric(scaled/clamped, "speedupWithScaling")
}

// BenchmarkAblationDeferral measures the smart-backup peak shaving
// (the §3.2.2 implication; see examples/backupadvisor for the full
// policy).
func BenchmarkAblationDeferral(b *testing.B) {
	g, logs, _ := benchData(b)
	loc := g.Config().Start.Location()
	var peakReduction, eveningReduction float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var before, after [24]float64
		for _, l := range logs {
			if l.Type != trace.ChunkStore {
				continue
			}
			h := l.Time.In(loc).Hour()
			v := float64(l.Bytes)
			before[h] += v
			if h < 20 {
				after[h] += v
			}
		}
		// Water-fill the deferred evening volume into the least-loaded
		// morning hours (00:00-10:00), as examples/backupadvisor does.
		var deferred float64
		for h := 20; h < 24; h++ {
			deferred += before[h]
		}
		for deferred > 0 {
			min := 0
			for h := 1; h < 10; h++ {
				if after[h] < after[min] {
					min = h
				}
			}
			step := deferred
			if step > 64<<20 {
				step = 64 << 20
			}
			after[min] += step
			deferred -= step
		}
		maxOf := func(p [24]float64) float64 {
			m := 0.0
			for _, v := range p {
				if v > m {
					m = v
				}
			}
			return m
		}
		peakReduction = 1 - maxOf(after)/maxOf(before)
		var evBefore, evAfter float64
		for h := 20; h < 24; h++ {
			evBefore += before[h]
			evAfter += after[h]
		}
		eveningReduction = 1 - evAfter/evBefore
	}
	b.ReportMetric(peakReduction, "peakReduction")
	b.ReportMetric(eveningReduction, "eveningLoadReduction")
}

// BenchmarkAblationRestartPolicy compares the three §4.3 idle-restart
// policies under the default burst model: deployed slow-start restart,
// naive SSAI-off (burst-loss risk), and paced restart.
func BenchmarkAblationRestartPolicy(b *testing.B) {
	var thr [3]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pol := range []tcpsim.RestartPolicy{
			tcpsim.RestartSlowStart, tcpsim.KeepWindow, tcpsim.PacedRestart,
		} {
			res, err := tcpsim.SimulateUploadPolicy(tcpsim.TransferConfig{
				Device: tcpsim.AndroidProfile, Server: tcpsim.DefaultServer,
				FileSize: 10 << 20, RTT: 100 * time.Millisecond, Seed: uint64(i),
			}, pol, tcpsim.DefaultBurst)
			if err != nil {
				b.Fatal(err)
			}
			thr[pol] = res.Throughput / 1024
		}
	}
	b.ReportMetric(thr[tcpsim.RestartSlowStart], "kbps_slowstart")
	b.ReportMetric(thr[tcpsim.KeepWindow], "kbps_keepwindow")
	b.ReportMetric(thr[tcpsim.PacedRestart], "kbps_paced")
}

// BenchmarkAblationCache runs the web-cache what-if (§3.1.4): Zipf
// download popularity through the live LRU cache.
func BenchmarkAblationCache(b *testing.B) {
	var small, large float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunCacheStudy(core.CacheStudyConfig{
			Objects: 500, Requests: 10000, ObjectBytes: 8 << 10,
			CacheFracs: []float64{0.05, 0.2}, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		small = res.Points[0].HitRate
		large = res.Points[1].HitRate
	}
	b.ReportMetric(small, "hitRate_5pctCache")
	b.ReportMetric(large, "hitRate_20pctCache")
}

// BenchmarkAblationTiering runs the f4-style warm-storage what-if
// (§3.2.2): with ~80% of uploads never read, demoting idle objects
// cuts storage cost.
func BenchmarkAblationTiering(b *testing.B) {
	var saving float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunTieringStudy(core.TieringStudyConfig{
			Objects: 500, ObjectBytes: 16 << 10, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		saving = res.Saving
	}
	b.ReportMetric(saving, "costSaving")
}

// BenchmarkAblationDedup measures deduplication benefit on the live
// chunk store when a fraction of uploads share content (the design
// choice the paper argues matters little for mobile backup workloads,
// where uploads are mostly unique photos — compare dupProb 0.05
// against a PC-like 0.3).
func BenchmarkAblationDedup(b *testing.B) {
	var mobileRatio, pcRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mobileRatio = dedupRun(uint64(i), 200, 0.05).DedupRatio()
		pcRatio = dedupRun(uint64(i), 200, 0.30).DedupRatio()
	}
	b.ReportMetric(mobileRatio, "mobileBytesSaved")
	b.ReportMetric(pcRatio, "pcBytesSaved")
}

// --- Observability overhead ------------------------------------------

// BenchmarkMetricsHotPath measures the raw cost of the per-request
// instrumentation: one counter increment plus one histogram
// observation. This is the number the "<100 ns of overhead" claim in
// README's Observability section rests on.
func BenchmarkMetricsHotPath(b *testing.B) {
	reg := metrics.NewRegistry()
	c := reg.Counter("bench_requests_total", "bench")
	h := reg.Histogram("bench_seconds", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(float64(i%1000) * 1e-6)
	}
}

// benchFrontEndChunkPut drives PUT /chunk/{md5} directly against the
// front-end handler (no sockets), with or without metrics attached.
func benchFrontEndChunkPut(b *testing.B, instrumented bool) {
	var cfg storage.FrontEndConfig
	if instrumented {
		cfg.Metrics = storage.NewFrontEndMetrics(metrics.NewRegistry())
	}
	cfg.Store = storage.NewMemStore()
	cfg.Meta = storage.NewMetadata("http://fe")
	fe := storage.NewFrontEnd(cfg)
	handler := fe.Handler()
	data := make([]byte, 4<<10)
	for i := range data {
		data[i] = byte(i)
	}
	path := "/chunk/" + storage.SumBytes(data).String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPut, path, bytes.NewReader(data))
		req.Header.Set("X-Device-Type", "android")
		req.Header.Set("X-Device-ID", "42")
		req.Header.Set("X-User-ID", "1042")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkFrontEndUninstrumented is the baseline for the pair; the
// delta to BenchmarkFrontEndInstrumented is the full per-request
// instrumentation cost on the chunk hot path.
func BenchmarkFrontEndUninstrumented(b *testing.B) { benchFrontEndChunkPut(b, false) }

// BenchmarkFrontEndInstrumented is the same request path with the
// counter + histogram instrumentation attached.
func BenchmarkFrontEndInstrumented(b *testing.B) { benchFrontEndChunkPut(b, true) }

// dedupRun pushes n 64 KB chunk uploads into a fresh store; each
// upload duplicates one of 8 shared contents with probability dupProb.
func dedupRun(seed uint64, n int, dupProb float64) storage.StoreStats {
	store := storage.NewMemStore()
	src := randx.New(seed)
	shared := make([][]byte, 8)
	for i := range shared {
		s := randx.Derive(seed, "shared")
		buf := make([]byte, 64<<10)
		for j := range buf {
			buf[j] = byte(s.Uint64() + uint64(i))
		}
		shared[i] = buf
	}
	for i := 0; i < n; i++ {
		var data []byte
		if src.Bool(dupProb) {
			data = shared[src.Intn(len(shared))]
		} else {
			data = make([]byte, 64<<10)
			for j := range data {
				data[j] = byte(src.Uint64())
			}
		}
		if err := store.PutCtx(context.Background(), storage.SumBytes(data), data); err != nil {
			panic(err)
		}
	}
	return store.Stats()
}
