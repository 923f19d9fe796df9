package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mcloud/internal/storage"
)

// The wrappers must keep every optional interface of the stores they
// wrap, or the program would take other code paths when traced.
var (
	_ storage.CtxStore    = (*tracedStore)(nil)
	_ storage.ReaderStore = (*tracedStore)(nil)
	_ storage.MultiHaser  = (*tracedStore)(nil)
	_ storage.Ranger      = (*tracedStore)(nil)
	_ storage.Deleter     = tracedDeleter{}
	_ innerStore          = (*storage.DiskStore)(nil)
	_ innerStore          = (*storage.CachedStore)(nil)
)

// pinnedDigests is the identity of each workload's traffic at seed 1:
// the first 500 operations of every device. A change here changes what
// the benchmark measures, and the baseline with it.
var pinnedDigests = map[string]string{
	"small_sync":    "a0b74f0fe8f36a5e2e5ba02a23bc8572543000c44af705cc3c7f5f955b94fa31",
	"bulk_upload":   "29226b6bcf95a5582242880e17276eb92b6b74c839f0221ffbda7b2fe1090b21",
	"bulk_download": "ba9ae45c30156b685224e44527073d9fef905857030e9675380797ddf63af23e",
	"paper_mix":     "63cc30efc6249a6358c693816fa4becda88e5d08db60624d842b1ac8d238d143",
}

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range workloads(false) {
		a, b := opListDigest(s, 1, 500), opListDigest(s, 1, 500)
		if a != b {
			t.Errorf("%s: same seed gave two op lists", s.name)
		}
		if a != pinnedDigests[s.name] {
			t.Errorf("%s: op list digest at seed 1 is %s, pinned %s", s.name, a, pinnedDigests[s.name])
		}
		// bulk_upload stores one size in one order whatever the seed;
		// its seed shows in the content offsets, which the digest covers.
		if c := opListDigest(s, 2, 500); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same op list", s.name)
		}
	}
}

func TestEveryBlockOffersTheSameMixture(t *testing.T) {
	for _, s := range workloads(false) {
		type key struct {
			kind opKind
			rank int
		}
		want := map[key]int{}
		for _, b := range s.block {
			want[key{b.kind, b.rank}]++
		}
		for _, seed := range []uint64{1, 2} {
			g := newOpStream(s, seed, 0)
			for block := 0; block < 3; block++ {
				got := map[key]int{}
				for range s.block {
					o := g.next()
					got[key{o.kind, o.rank}]++
					if o.size != s.sizes[o.rank] {
						t.Fatalf("%s: op at rank %d has size %d, table says %d", s.name, o.rank, o.size, s.sizes[o.rank])
					}
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("%s seed %d block %d: %d ops of kind %d at rank %d, want %d", s.name, seed, block, got[k], k.kind, k.rank, n)
					}
				}
			}
		}
		seeded := map[int]bool{}
		for _, r := range s.seeded {
			seeded[r] = true
		}
		for _, b := range s.block {
			if b.kind != opStore && !seeded[b.rank] {
				t.Errorf("%s: rank %d is retrieved or re-stored but never seeded", s.name, b.rank)
			}
		}
		for _, n := range s.sizes {
			if last := n % storage.ChunkSize; n < 8 || (last > 0 && last < 8) {
				t.Errorf("%s: size %d leaves no room for the last chunk's stamp", s.name, n)
			}
		}
	}
}

func TestPaperMixProportions(t *testing.T) {
	s := workloads(false)[3]
	var stores, dups, retrieves float64
	for _, b := range s.block {
		switch b.kind {
		case opStore:
			stores++
		case opDup:
			stores++
			dups++
		case opRetrieve:
			retrieves++
		}
	}
	if got := dups / stores; math.Abs(got-0.20) > 0.03 {
		t.Errorf("dedup share of stores is %.3f, want 0.20", got)
	}
	if got := retrieves / (stores + retrieves); math.Abs(got-0.30) > 0.03 {
		t.Errorf("retrieve share of ops is %.3f, want 0.30", got)
	}
}

func TestFillAndCheck(t *testing.T) {
	pool := payloadPool(1, 3*storage.ChunkSize)
	o := op{size: 2*storage.ChunkSize + 100, stamp: deviceStamp(1, 7), off: 12345}
	data := fill(make([]byte, 3*storage.ChunkSize), pool, o)
	if err := checkStamps(data, o); err != nil {
		t.Fatal(err)
	}
	other := o
	other.stamp = deviceStamp(1, 8)
	if checkStamps(data, other) == nil {
		t.Error("content of one store passed as another's")
	}
	if checkStamps(data[:len(data)-1], o) == nil {
		t.Error("truncated content passed")
	}
	sums := storage.SplitSums(data)
	if sums[0] == sums[1] {
		t.Error("two chunks of a file share content")
	}
}

func ms(n int64) int64 { return n * int64(time.Millisecond) }

func TestSelfTimeWithParallelChildren(t *testing.T) {
	// root 0-100; two handlers overlap 30-50; the first has a disk put
	// inside it; a straggler outlives the root and is clipped.
	spans := []span{
		{ID: 1, Kind: spClientStore, Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Kind: spFEHTTP, Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Kind: spFEHTTP, Start: ms(30), End: ms(70)},
		{ID: 4, Parent: 2, Kind: spDiskPut, Start: ms(10), End: ms(30)},
		{ID: 5, Parent: 1, Kind: spMetaHTTP, Start: ms(90), End: ms(140)},
	}
	sum := analyze(spans, 0, ms(200))
	want := map[uint32]int64{
		1: ms(10 + 20), // 0-10 and 70-90
		2: ms(10),      // 30-50 shared with span 3
		3: ms(10 + 20), // 30-50 shared, 50-70 alone
		4: ms(20),
		5: ms(10), // clipped at the root's end
	}
	for id, w := range want {
		if got := sum.perSpan[id]; got != w {
			t.Errorf("span %d: self %d ms, want %d ms", id, got/1e6, w/1e6)
		}
	}
	var total int64
	for _, ns := range sum.selfNs {
		total += ns
	}
	if total != ms(100) || sum.rootNs != ms(100) || sum.ops != 1 {
		t.Errorf("layers add up to %d ms over %d ops, root time %d ms", total/1e6, sum.ops, sum.rootNs/1e6)
	}
	if sum.calls[layerFrontEnd] != 2 || sum.calls[layerDisk] != 1 {
		t.Errorf("calls: %v", sum.calls)
	}
	// A root outside the window is not measured.
	if out := analyze(spans, ms(5), ms(200)); out.ops != 0 {
		t.Errorf("root starting before the window was counted")
	}
}

func TestReplicaHopsJoinTheirOperation(t *testing.T) {
	// The coordinator's handler (2) writes chunk 77 locally (3) and a
	// parentless hop (4) carries it to a peer's handler (5) and disk
	// (6). A probe hop (7) carries no chunk and stays unlinked.
	spans := []span{
		{ID: 1, Kind: spClientStore, Start: ms(0), End: ms(50)},
		{ID: 2, Parent: 1, Kind: spFEHTTP, Start: ms(5), End: ms(45)},
		{ID: 3, Parent: 2, Kind: spDiskPut, Key: 77, Start: ms(10), End: ms(20)},
		{ID: 4, Kind: spReplHop, Start: ms(10), End: ms(40)},
		{ID: 5, Parent: 4, Kind: spReplHTTP, Start: ms(15), End: ms(35)},
		{ID: 6, Parent: 5, Kind: spDiskPut, Key: 77, Start: ms(20), End: ms(30)},
		{ID: 7, Kind: spReplHop, Start: ms(6), End: ms(8)},
	}
	sum := analyze(spans, 0, ms(100))
	for _, id := range []uint32{4, 5, 6} {
		if sum.opOf[id] != 1 {
			t.Errorf("span %d was not joined to operation 1", id)
		}
	}
	if _, ok := sum.opOf[7]; ok {
		t.Error("the probe hop was joined to an operation")
	}
	if sum.calls[layerReplication] != 3 {
		t.Errorf("replication calls = %d, want 3 (two hops, one peer handler)", sum.calls[layerReplication])
	}
	var total int64
	for _, ns := range sum.selfNs {
		total += ns
	}
	if total != ms(50) {
		t.Errorf("layers add up to %d ms, root took 50", total/1e6)
	}
}

func TestWrappersKeepTheZeroCopyReader(t *testing.T) {
	disk, err := storage.OpenDiskStore(t.TempDir(), storage.DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	tr := newTracer()
	onDisk := traceStore(tr, disk, spDiskPut, spDiskGet)
	if _, ok := onDisk.(storage.Deleter); !ok {
		t.Error("the wrapper over DiskStore lost Delete")
	}
	cache := storage.NewCachedStore(onDisk, 1*mb)
	top := traceStore(tr, cache, spStorePut, spStoreGet)
	if _, ok := top.(storage.Deleter); ok {
		t.Error("the wrapper over CachedStore gained Delete")
	}

	data := []byte("a chunk that goes to a segment file")
	sum := storage.SumBytes(data)
	if err := storage.PutCtx(context.Background(), top, sum, data); err != nil {
		t.Fatal(err)
	}
	rd, err := storage.GetReader(context.Background(), onDisk, sum)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, inMemory := rd.Bytes(); inMemory {
		t.Error("the reader through the wrapper was materialized; want DiskStore's streaming reader")
	}
	if _, _, ok := rd.Frame(); !ok {
		t.Error("the reader through the wrapper cannot serve its on-disk frame")
	}
	kinds := map[spanKind]int{}
	for _, s := range tr.snapshot() {
		kinds[s.Kind]++
	}
	if kinds[spStorePut] != 1 || kinds[spDiskPut] != 1 || kinds[spDiskGet] != 1 {
		t.Errorf("spans recorded: %v", kinds)
	}
}

// TestSmoke runs all four workloads, untraced and traced, at the
// smoke sizes, and checks what the traffic did rather than guessing.
func TestSmoke(t *testing.T) {
	began := time.Now()
	for _, s := range workloads(true) {
		for _, traced := range []bool{false, true} {
			spans := ""
			if traced {
				spans = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			res, err := runWorkload(context.Background(), s, 1, 0.6, traced, t.TempDir(), spans)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v, %d of %d failed: %v", s.name, traced, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			if !traced {
				for _, d := range endToEnd {
					if m, ok := res.EndToEnd[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
						t.Errorf("%s: end-to-end metric %s = %+v", s.name, d.name, m)
					}
				}
				// Three replicas of everything but the dedup hits, whose
				// share depends on where the short window ends.
				lo, hi := 1.0, 1.05
				if s.cluster {
					lo, hi = 2.2, 3.0
				}
				if got := res.EndToEnd["stored_bytes_per_user_byte"].Value; got < lo || got > hi {
					t.Errorf("%s: stored_bytes_per_user_byte = %.3f, want %.2f to %.2f", s.name, got, lo, hi)
				}
				if hits := res.Counts["dedup_hits"]; (hits > 0) != (s.name == "paper_mix") {
					t.Errorf("%s: %d dedup hits", s.name, hits)
				}
				continue
			}
			var shares float64
			for _, d := range perLayerDefs() {
				m, ok := res.PerLayer[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: per-layer metric %s = %+v", s.name, d.name, m)
				}
			}
			for _, l := range layerNames {
				shares += res.PerLayer[l+"_share"].Value
				if n := res.PerLayer[l+"_errors"].Value; n != 0 {
					t.Errorf("%s: %v errors in layer %s", s.name, n, l)
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("%s: layer shares add up to %.4f", s.name, shares)
			}
			if repl := res.PerLayer["replication_share"].Value; (repl > 0) != s.cluster {
				t.Errorf("%s: replication_share = %v", s.name, repl)
			}
			if cache := res.PerLayer["cache_calls_per_op"].Value; (cache > 0) == s.cluster {
				t.Errorf("%s: cache_calls_per_op = %v", s.name, cache)
			}
			if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
				t.Errorf("%s: span dump: %v", s.name, err)
			}
		}
	}
	if took := time.Since(began); took > 15*time.Second {
		t.Errorf("smoke set took %v, want under 15 s", took)
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps the driver's contract file
// and the program's own tables the same.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	specs := workloads(false)
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := file.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", s.name, len(s.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, d.name, d.bound)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd, true)
	check("per-layer", file.PerLayer, perLayerDefs(), false)
}
