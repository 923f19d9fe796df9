package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"mcloud/internal/randx"
	"mcloud/internal/storage"
	"mcloud/internal/workload"
)

type opKind uint8

const (
	opStore    opKind = iota // store a file no one has stored
	opDup                    // store the shared file of this rank again: a file-level dedup hit
	opRetrieve               // retrieve the file this device last stored (or was seeded with) at this rank
)

// blockOp is one entry of a workload's block: what to do, at which
// rank of the workload's size table.
type blockOp struct {
	kind opKind
	rank int
}

// spec describes one workload. Its traffic is an endless sequence of
// blocks; every block holds the same operations at the same sizes, and
// the seed decides their order and their content. Any two seeds
// therefore offer the service the same mixture, so runs on different
// seeds measure the same work.
type spec struct {
	name    string
	why     string
	cluster bool // 3 replicated nodes, no cache; else one durable node behind a 64 MB cache
	devices int
	// parallel is Client.Parallel; devices x parallel <= 2 in-flight
	// requests, the core count of the reference box.
	parallel int
	sizes    []int64   // file size per rank
	block    []blockOp // one block
	// seeded ranks are stored once in set-up by a separate user: the
	// first retrieve targets, the dedup pool, the download corpus.
	seeded []int
}

// retrieves and stores report whether the workload's own mix has
// that kind of operation.
func (s *spec) retrieves() bool {
	for _, op := range s.block {
		if op.kind == opRetrieve {
			return true
		}
	}
	return false
}

func (s *spec) stores() bool {
	for _, op := range s.block {
		if op.kind != opRetrieve {
			return true
		}
	}
	return false
}

func (s *spec) maxSize() int64 {
	var m int64
	for _, n := range s.sizes {
		m = max(m, n)
	}
	return m
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// spread picks n of m ranks, evenly spaced.
func spread(n, m int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (2*i + 1) * m / (2 * n)
	}
	return out
}

// logUniformSizes returns n sizes at the mid-quantiles of a
// log-uniform distribution over [lo, hi].
func logUniformSizes(n int, lo, hi float64) []int64 {
	out := make([]int64, n)
	for i := range out {
		q := (float64(i) + 0.5) / float64(n)
		out[i] = int64(lo * math.Pow(hi/lo, q))
	}
	return out
}

// paperSizes returns n sizes at the mid-quantiles of the paper's store
// size mixture (Table 2), clamped as mcsload clamps them.
func paperSizes(n int, lo, hi int64) []int64 {
	cdf := func(x float64) float64 {
		var f float64
		for i, a := range workload.StoreSizeAlphas {
			f += a * (1 - math.Exp(-x/workload.StoreSizeMus[i]))
		}
		return f
	}
	out := make([]int64, n)
	for i := range out {
		q := (float64(i) + 0.5) / float64(n)
		a, b := 0.0, 4096.0 // MB
		for k := 0; k < 60; k++ {
			if mid := (a + b) / 2; cdf(mid) < q {
				a = mid
			} else {
				b = mid
			}
		}
		out[i] = min(max(int64(a*mb), lo), hi)
	}
	return out
}

// zipfBlock returns n retrieves over m ranks in the proportions of a
// Zipf(s) popularity law, by largest remainder, so every block asks
// for each file equally often whatever the seed.
func zipfBlock(n, m int, s float64) []blockOp {
	w := make([]float64, m)
	var total float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	type frac struct {
		rank int
		rem  float64
	}
	count := make([]int, m)
	rems := make([]frac, m)
	left := n
	for i := range w {
		exact := w[i] / total * float64(n)
		count[i] = int(exact)
		left -= count[i]
		rems[i] = frac{i, exact - float64(count[i])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].rem > rems[j].rem })
	for _, f := range rems[:left] {
		count[f.rank]++
	}
	var out []blockOp
	for rank, c := range count {
		for ; c > 0; c-- {
			out = append(out, blockOp{opRetrieve, rank})
		}
	}
	return out
}

func repeatSize(n int, size int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// mixedBlock is one store per rank, those at dup ranks re-storing the
// shared file, plus one retrieve per retrieve rank.
func mixedBlock(ranks int, retrieve, dup []int) []blockOp {
	isDup := make(map[int]bool)
	for _, r := range dup {
		isDup[r] = true
	}
	var out []blockOp
	for r := 0; r < ranks; r++ {
		if isDup[r] {
			out = append(out, blockOp{opDup, r})
		} else {
			out = append(out, blockOp{opStore, r})
		}
	}
	for _, r := range retrieve {
		out = append(out, blockOp{opRetrieve, r})
	}
	return out
}

// workloads builds the four specs. The smoke sizes keep every code
// path and shrink the bytes, so the tests can run all of them.
func workloads(smoke bool) []*spec {
	bulk, corpus, paperMax := int64(4*mb), 64, int64(8*mb)
	if smoke {
		bulk, corpus, paperMax = 1*mb+77, 12, 1*mb+77
	}
	// small_sync retrieves a hot set that set-up stored and nothing
	// re-stores (ranks 70-99): the cache is write-around, so only
	// re-read files can hit it, and this is the workload that fits it.
	smallSizes := append(logUniformSizes(70, 4*kb, 64*kb), logUniformSizes(30, 4*kb, 64*kb)...)
	var smallHot []int
	for r := 70; r < 100; r++ {
		smallHot = append(smallHot, r)
	}
	paperRetrieve := spread(15, 35)
	var paperDup []int
	for i := 1; i < len(paperRetrieve); i += 2 {
		paperDup = append(paperDup, paperRetrieve[i])
	}
	corpusRanks := make([]int, corpus)
	for i := range corpusRanks {
		corpusRanks[i] = i
	}
	return []*spec{
		{
			name:    "small_sync",
			why:     "4-64 KB files, 70% store, 30% retrieve of a hot set: fixed per-operation cost dominates (metadata round trips, WAL and segment fsyncs, HTTP framing); the read set fits the cache",
			devices: 2, parallel: 1,
			sizes:  smallSizes,
			block:  mixedBlock(70, smallHot, nil),
			seeded: smallHot,
		},
		{
			name:    "bulk_upload",
			why:     "store-only 4 MB files: per-byte write path (client MD5 and framing, front-end put, DiskStore append and group-commit fsync); one commit per 8 chunks, cache bypassed",
			devices: 1, parallel: 2,
			sizes: []int64{bulk},
			block: mixedBlock(1, nil, nil),
		},
		{
			name:    "bulk_download",
			why:     "retrieve-only, Zipf(0.9) over a 4 MB-file corpus 4x the cache: per-byte read path (cache admission, disk reads, batched binary GET, client verify); a write-path gain that costs reads shows here",
			devices: 1, parallel: 2,
			sizes:  repeatSize(corpus, bulk),
			block:  zipfBlock(4*corpus, corpus, 0.9),
			seeded: corpusRanks,
		},
		{
			name:    "paper_mix",
			why:     "3-node N=3/W=2 cluster, paper size mixture 4 KB-8 MB, 20% of stores dedup hits, 30% retrieves: the only workload where replication fan-out, ring routing and metadata dedup do work",
			cluster: true, devices: 2, parallel: 1,
			sizes:  paperSizes(35, 4*kb, paperMax),
			block:  mixedBlock(35, paperRetrieve, paperDup),
			seeded: paperRetrieve,
		},
	}
}

// op is one generated operation. A retrieve names only its rank: the
// file it fetches is the one the device then holds at that rank.
type op struct {
	kind  opKind
	rank  int
	size  int64
	stamp uint64 // unique per stored file; stamped into every chunk
	off   int    // window of the payload pool the content is cut from
}

// Stamp layout: 4 bits of origin, 8 of device, 36 of sequence, 16 of
// chunk index, so no two chunks of a run share content and the store
// and the metadata server deduplicate only what a workload re-stores.
const (
	stampDevice = 1 << 60
	stampSeeded = 2 << 60
)

func deviceStamp(dev int, seq uint64) uint64 { return stampDevice | uint64(dev)<<52 | seq<<16 }
func seededStamp(rank int) uint64            { return stampSeeded | uint64(rank)<<16 }

// seededOp is the set-up store of a shared file; every run stores the
// same ranks, the seed changes their bytes through the pool.
func (s *spec) seededOp(rank int) op {
	return op{kind: opStore, rank: rank, size: s.sizes[rank], stamp: seededStamp(rank), off: rank * 4096 % storage.ChunkSize}
}

// opStream generates one device's operations from the seed alone.
type opStream struct {
	spec  *spec
	dev   int
	rng   *randx.Source
	order []int
	pos   int
	seq   uint64
}

func newOpStream(s *spec, seed uint64, dev int) *opStream {
	return &opStream{spec: s, dev: dev, rng: randx.Derive(seed, fmt.Sprintf("%s/device/%d", s.name, dev))}
}

func (g *opStream) next() op {
	if g.pos == len(g.order) {
		g.order, g.pos = g.rng.Perm(len(g.spec.block)), 0
	}
	b := g.spec.block[g.order[g.pos]]
	g.pos++
	switch b.kind {
	case opDup:
		o := g.spec.seededOp(b.rank)
		o.kind = opDup
		return o
	case opRetrieve:
		return op{kind: opRetrieve, rank: b.rank, size: g.spec.sizes[b.rank]}
	}
	g.seq++
	return op{kind: opStore, rank: b.rank, size: g.spec.sizes[b.rank],
		stamp: deviceStamp(g.dev, g.seq), off: g.rng.Intn(storage.ChunkSize)}
}

// opListDigest hashes the first n operations of every device: the
// pinned identity of a workload's traffic at a seed.
func opListDigest(s *spec, seed uint64, n int) string {
	h := sha256.New()
	var rec [33]byte
	for dev := 0; dev < s.devices; dev++ {
		g := newOpStream(s, seed, dev)
		for i := 0; i < n; i++ {
			o := g.next()
			rec[0] = byte(o.kind)
			binary.LittleEndian.PutUint64(rec[1:], uint64(o.rank))
			binary.LittleEndian.PutUint64(rec[9:], uint64(o.size))
			binary.LittleEndian.PutUint64(rec[17:], o.stamp)
			binary.LittleEndian.PutUint64(rec[25:], uint64(o.off))
			h.Write(rec[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// payloadPool is the random buffer file contents are cut from, so
// generating a payload inside the timed region is one copy.
func payloadPool(seed uint64, maxSize int64) []byte {
	rng := randx.Derive(seed, "payload")
	pool := make([]byte, maxSize+storage.ChunkSize+8)
	for i := 0; i+8 <= len(pool); i += 8 {
		binary.LittleEndian.PutUint64(pool[i:], rng.Uint64())
	}
	return pool
}

// fill writes the content of a stored file into dst: a window of the
// pool with the file's stamp over the first 8 bytes of every chunk.
func fill(dst, pool []byte, o op) []byte {
	dst = dst[:o.size]
	copy(dst, pool[o.off:])
	for c, p := uint64(0), 0; p < len(dst); c, p = c+1, p+storage.ChunkSize {
		binary.LittleEndian.PutUint64(dst[p:], o.stamp|c)
	}
	return dst
}

// checkStamps verifies length and every chunk's stamp of retrieved
// content against the store that produced it.
func checkStamps(got []byte, o op) error {
	if int64(len(got)) != o.size {
		return fmt.Errorf("retrieved %d bytes, stored %d", len(got), o.size)
	}
	for c, p := uint64(0), 0; p < len(got); c, p = c+1, p+storage.ChunkSize {
		if s := binary.LittleEndian.Uint64(got[p:]); s != o.stamp|c {
			return fmt.Errorf("chunk %d carries stamp %#x, stored %#x", c, s, o.stamp|c)
		}
	}
	return nil
}
