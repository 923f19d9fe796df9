package storage

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/metrics"
	"mcloud/internal/randx"
	"mcloud/internal/trace"
)

// switchHandler lets a test swap (or disable) a node's handler after
// the server is already listening — membership URLs must exist before
// the ReplicatedStores that reference them can be built, and a nil
// handler simulates a node outage (503 on every request).
type switchHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *switchHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type clusterNode struct {
	url     string
	local   *MemStore
	rs      *ReplicatedStore
	handler *switchHandler
	fe      http.Handler
}

// down simulates an outage; up restores the node.
func (n *clusterNode) down() { n.handler.set(nil) }
func (n *clusterNode) up()   { n.handler.set(n.fe) }

// newTestCluster boots n in-process nodes sharing one metadata server,
// each running a ReplicatedStore over the full membership. The health
// breaker trips on the first failure with a short cooldown so outage
// tests don't wait on production timings.
func newTestCluster(t *testing.T, n, replicas, quorum int) ([]*clusterNode, *Metadata) {
	t.Helper()
	nodes := make([]*clusterNode, n)
	peers := make([]string, n)
	for i := range nodes {
		h := &switchHandler{}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		nodes[i] = &clusterNode{url: srv.URL, local: NewMemStore(), handler: h}
		peers[i] = srv.URL
	}
	meta := NewMetadata()
	for _, nd := range nodes {
		rs, err := NewReplicatedStore(ReplicatedConfig{
			Self:        nd.url,
			Peers:       peers,
			Replicas:    replicas,
			WriteQuorum: quorum,
			Local:       nd.local,
			Health:      cluster.NewHealth(1, 50*time.Millisecond),
			RepairEvery: -1, // tests drive RepairNow directly
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.rs = rs
		t.Cleanup(func() { rs.Close() })
		fe := NewFrontEnd(FrontEndConfig{Store: rs, Meta: meta})
		nd.fe = fe.Handler()
		nd.up()
	}
	return nodes, meta
}

func replChunk(seed uint64, n int) (Sum, []byte) {
	src := randx.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(src.Uint64())
	}
	return SumBytes(b), b
}

// nodeByURL maps an owner URL back to its test node.
func nodeByURL(t *testing.T, nodes []*clusterNode, url string) *clusterNode {
	t.Helper()
	for _, nd := range nodes {
		if nd.url == url {
			return nd
		}
	}
	t.Fatalf("no node for %s", url)
	return nil
}

func TestReplicatedPutReachesAllOwners(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 3, 2)
	sum, data := replChunk(1, 32<<10)

	if err := nodes[0].rs.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	// Quorum acks before the slowest replica lands; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := 0
		for _, nd := range nodes {
			if nd.local.Has(sum) {
				n++
			}
		}
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chunk on %d/3 nodes after quorum put", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every node serves the chunk, byte-identical.
	for i, nd := range nodes {
		got, err := nd.rs.GetCtx(bg, sum)
		if err != nil {
			t.Fatalf("node %d get: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("node %d returned different bytes", i)
		}
	}
}

func TestReplicatedGetForwardsAndFailsOver(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 2, 2)
	sum, data := replChunk(2, 16<<10)
	owners := nodes[0].rs.Owners(sum)
	if len(owners) != 2 {
		t.Fatalf("owners = %d, want 2", len(owners))
	}
	// Find the one node that does NOT own the chunk.
	var outsider *clusterNode
	for _, nd := range nodes {
		if nd.url != owners[0] && nd.url != owners[1] {
			outsider = nd
		}
	}
	if err := nodeByURL(t, nodes, owners[0]).rs.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}

	// A non-owner serves the chunk by forwarding to an owner.
	got, err := outsider.rs.GetCtx(bg, sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("forwarded get returned different bytes")
	}

	// Primary owner dies: the read fails over to the secondary.
	nodeByURL(t, nodes, owners[0]).down()
	got, err = outsider.rs.GetCtx(bg, sum)
	if err != nil {
		t.Fatalf("get with primary down: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover get returned different bytes")
	}
}

func TestReplicatedReadRepair(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 2, 2)
	sum, data := replChunk(3, 8<<10)
	owners := nodes[0].rs.Owners(sum)
	first := nodeByURL(t, nodes, owners[0])
	second := nodeByURL(t, nodes, owners[1])

	// The chunk exists only on the secondary — as if the primary was
	// down during the write.
	if err := second.local.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	got, err := first.rs.GetCtx(bg, sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different bytes")
	}
	if !first.local.Has(sum) {
		t.Fatal("read repair did not restore the primary's copy")
	}
}

func TestReplicatedOutageQuorumAndRepair(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 3, 2)
	sum, data := replChunk(4, 8<<10)

	// One replica down: W=2 of N=3 still acks the write.
	nodes[2].down()
	if err := nodes[0].rs.PutCtx(bg, sum, data); err != nil {
		t.Fatalf("put with one node down: %v", err)
	}
	// The failed replica lands in the repair queue (possibly from the
	// post-quorum straggler drain).
	deadline := time.Now().Add(2 * time.Second)
	for nodes[0].rs.Underreplicated() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failed replica never queued for repair")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Node recovers; after the breaker cooldown a repair pass
	// re-streams the chunk and drains the gauge.
	nodes[2].up()
	time.Sleep(60 * time.Millisecond) // breaker cooldown (50ms in tests)
	deadline = time.Now().Add(2 * time.Second)
	for nodes[0].rs.Underreplicated() > 0 {
		nodes[0].rs.RepairNow()
		if time.Now().After(deadline) {
			t.Fatalf("underreplicated = %d after repair", nodes[0].rs.Underreplicated())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !nodes[2].local.Has(sum) {
		t.Fatal("repair did not restore the missing replica")
	}

	// Two replicas down: the quorum is unreachable and the write fails
	// with the retryable sentinel.
	nodes[1].down()
	nodes[2].down()
	sum2, data2 := replChunk(5, 4<<10)
	err := nodes[0].rs.PutCtx(bg, sum2, data2)
	if err == nil {
		t.Fatal("put succeeded with quorum unreachable")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("quorum failure = %v, want ErrUnavailable", err)
	}
}

func TestReplicatedMultiHasBatches(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 2, 2)

	// Spread chunks directly into single nodes' local stores so only
	// the batched remote stat can find them.
	var sums []Sum
	for i := 0; i < 9; i++ {
		sum, data := replChunk(uint64(10+i), 4<<10)
		owners := nodes[0].rs.Owners(sum)
		if err := nodeByURL(t, nodes, owners[len(owners)-1]).local.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
	}
	missing, _ := replChunk(99, 4<<10)
	sums = append(sums, missing)

	for i, nd := range nodes {
		got := nd.rs.MultiHas(sums)
		for j := range sums[:len(sums)-1] {
			if !got[j] {
				t.Errorf("node %d: chunk %d reported missing", i, j)
			}
		}
		if got[len(sums)-1] {
			t.Errorf("node %d: absent chunk reported present", i)
		}
	}
}

// TestClusterEndToEndOutage drives the real client protocol against a
// 3-node cluster (node 0 is the advertised front-end; all three hold
// replicas) and checks that a single-node outage mid-lifetime loses no
// acknowledged data.
func TestClusterEndToEndOutage(t *testing.T) {
	nodes, meta := newTestCluster(t, 3, 2, 2)
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()
	meta.AddFrontEnd(nodes[0].url)

	pol := fastRetry
	client := NewClient(ClientConfig{
		MetaURL:  metaSrv.URL,
		UserID:   1,
		DeviceID: 1,
		Retry:    &pol,
	})

	data := make([]byte, 3*ChunkSize+777)
	src := randx.New(42)
	for i := range data {
		data[i] = byte(src.Uint64())
	}
	res, err := client.StoreFile("cluster.bin", data)
	if err != nil {
		t.Fatal(err)
	}

	// With N=2 over 3 nodes every chunk survives any single outage.
	for kill := 1; kill < 3; kill++ {
		nodes[kill].down()
		got, err := client.RetrieveFile(res.URL)
		if err != nil {
			t.Fatalf("retrieve with node %d down: %v", kill, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("retrieve with node %d down returned different bytes", kill)
		}
		nodes[kill].up()
		time.Sleep(60 * time.Millisecond) // let the breaker cooldown lapse
	}
}

// ringNode is one node of a disk-backed test ring: a DiskStore under a
// ReplicatedStore, with a count of the requests the node served by
// span name ("POST /bin/put", "PUT /chunk (replica)", ...).
type ringNode struct {
	url     string
	disk    *DiskStore
	rs      *ReplicatedStore
	handler *switchHandler
	fe      http.Handler

	mu   sync.Mutex
	seen map[string]int
}

func (n *ringNode) up()   { n.handler.set(n.fe) }
func (n *ringNode) down() { n.handler.set(nil) }

func (n *ringNode) served(name string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seen[name]
}

func (n *ringNode) fsyncs() int64 { return n.disk.DiskStats().Fsyncs }

// newDiskRing boots n nodes, every one owning every chunk (N = n), with
// write quorum w; node 0 is the front-end the metadata server assigns.
// Node legacy (-1 for none) withholds mcsbin/1 in both directions, as
// mcsserver -binapi=false does. wrap, when non-nil, wraps every node's
// peer transport. It returns the nodes and a client factory.
func newDiskRing(t *testing.T, n, w, legacy int, wrap func(http.RoundTripper) http.RoundTripper) ([]*ringNode, *Metadata, func(parallel int) *Client) {
	t.Helper()
	nodes := make([]*ringNode, n)
	peers := make([]string, n)
	for i := range nodes {
		h := &switchHandler{}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		disk, _ := newDiskStore(t, DiskStoreOptions{})
		nodes[i] = &ringNode{url: srv.URL, disk: disk, handler: h, seen: make(map[string]int)}
		peers[i] = srv.URL
	}
	meta := NewMetadata()
	for i, nd := range nodes {
		tr := http.RoundTripper(&http.Transport{})
		if wrap != nil {
			tr = wrap(tr)
		}
		rs, err := NewReplicatedStore(ReplicatedConfig{
			Self:        nd.url,
			Peers:       peers,
			Replicas:    n,
			WriteQuorum: w,
			Local:       nd.disk,
			HTTP:        &http.Client{Timeout: 10 * time.Second, Transport: tr},
			Health:      cluster.NewHealth(1, 50*time.Millisecond),
			RepairEvery: -1,
			DisableBin:  i == legacy,
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.rs = rs
		t.Cleanup(func() { rs.Close() })
		fe := NewFrontEnd(FrontEndConfig{Store: rs, Meta: meta, DisableBin: i == legacy}).Handler()
		nd.fe = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			nd.mu.Lock()
			nd.seen[spanName(r)]++
			nd.mu.Unlock()
			fe.ServeHTTP(w, r)
		})
		nd.up()
	}
	metaSrv := httptest.NewServer(meta.Handler())
	t.Cleanup(metaSrv.Close)
	meta.AddFrontEnd(nodes[0].url)
	pol := fastRetry
	return nodes, meta, func(parallel int) *Client {
		return &Client{MetaURL: metaSrv.URL, UserID: 1, DeviceID: 1, Device: trace.Android, Retry: &pol, Parallel: parallel}
	}
}

// relayGoroutines counts the goroutines still running replica streams.
func relayGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*relay)")) || bytes.Contains(g, []byte("(*frameReader)")) ||
			bytes.Contains(g, []byte("(*ReplicatedStore).sendFrames")) {
			n++
		}
	}
	return n
}

// checkNoRelayGoroutines fails if a replica stream outlives its batch
// by more than the time it takes to settle.
func checkNoRelayGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for relayGoroutines() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d replica stream goroutines outlived their batch", relayGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// holdsAll reports whether the node holds every chunk, fsync-covered.
func holdsAll(nd *ringNode, sums []Sum) bool {
	for _, s := range sums {
		if !nd.disk.Has(s) {
			return false
		}
	}
	return true
}

// TestReplicaBatchingIsPinned: a 16-chunk store from a window-one
// client costs one client bin/put, one replica bin/put per peer and one
// fsync per node — not a request and an fsync per chunk.
func TestReplicaBatchingIsPinned(t *testing.T) {
	nodes, _, newClient := newDiskRing(t, 3, 2, -1, nil)
	data := chunkedData(t, 61, 16*ChunkSize)
	sums := SplitSums(data)
	fsyncs := make([]int64, len(nodes))
	for i, nd := range nodes {
		fsyncs[i] = nd.fsyncs()
	}
	if _, err := newClient(1).StoreFile("batch.bin", data); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		waitFor(t, nd.url+" to hold the file", func() bool { return holdsAll(nd, sums) })
	}
	checkNoRelayGoroutines(t)
	if got := nodes[0].served("POST /bin/put"); got != 1 {
		t.Errorf("client sent %d bin/put requests, want 1", got)
	}
	if got := nodes[0].served("PUT /chunk"); got != 0 {
		t.Errorf("client sent %d JSON chunk PUTs, want 0", got)
	}
	for i, nd := range nodes {
		if i > 0 {
			if got := nd.served("POST /bin/put (replica)"); got != 1 {
				t.Errorf("peer %d served %d replica bin/puts, want 1", i, got)
			}
			if got := nd.served("PUT /chunk (replica)"); got != 0 {
				t.Errorf("peer %d served %d replica JSON PUTs, want 0", i, got)
			}
		}
		if got := nd.fsyncs() - fsyncs[i]; got != 1 {
			t.Errorf("node %d: %d fsyncs for the batch, want 1", i, got)
		}
	}
}

// streamCutter is a peer transport that kills the connection in the
// middle of the next replica bin/put streamed to one node: the body
// fails after a few frames, as if the peer died mid-stream.
type streamCutter struct {
	next  http.RoundTripper
	node  string
	after int64
	armed atomic.Bool
}

type cutBody struct {
	io.ReadCloser
	left int64
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.ReadCloser.Read(p)
	b.left -= int64(n)
	return n, err
}

func (c *streamCutter) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasPrefix(req.URL.String(), c.node) && req.URL.Path == "/v1/bin/put" && c.armed.CompareAndSwap(true, false) {
		req = req.Clone(req.Context())
		req.Body = &cutBody{ReadCloser: req.Body, left: c.after}
	}
	return c.next.RoundTrip(req)
}

// TestFanoutFaultMatrix drives the batch fan-out through the failures
// it must absorb: an owner dying mid-stream, every peer failing, a peer
// that speaks only JSON, and a corrupt frame in the client's batch.
// Run under -race; no replica stream may outlive its batch.
func TestFanoutFaultMatrix(t *testing.T) {
	t.Run("peer-dies-mid-stream", func(t *testing.T) {
		var cutters []*streamCutter
		nodes, _, newClient := newDiskRing(t, 3, 2, -1, func(rt http.RoundTripper) http.RoundTripper {
			c := &streamCutter{next: rt, after: 3*ChunkSize + 100}
			cutters = append(cutters, c)
			return c
		})
		cutters[0].node = nodes[2].url
		cutters[0].armed.Store(true)
		data := chunkedData(t, 62, 16*ChunkSize)
		sums := SplitSums(data)
		client := newClient(1)
		res, err := client.StoreFile("cut.bin", data)
		if err != nil {
			t.Fatalf("store with one owner dying mid-stream: %v", err)
		}
		waitFor(t, "the dead stream's frames to be queued", func() bool { return nodes[0].rs.Underreplicated() == len(sums) })
		checkNoRelayGoroutines(t)
		if holdsAll(nodes[2], sums) {
			t.Fatal("the cut owner holds the whole batch")
		}
		time.Sleep(60 * time.Millisecond) // breaker cooldown
		waitFor(t, "repair to drain", func() bool {
			nodes[0].rs.RepairNow()
			return nodes[0].rs.Underreplicated() == 0
		})
		if !holdsAll(nodes[2], sums) {
			t.Fatal("repair did not restore the cut owner's copies")
		}
		if got, err := client.RetrieveFile(res.URL); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("retrieve after repair: %v", err)
		}
	})

	t.Run("both-peers-fail", func(t *testing.T) {
		nodes, meta, newClient := newDiskRing(t, 3, 2, -1, nil)
		data := chunkedData(t, 63, 4*ChunkSize)
		sum := SumBytes(data)
		client := newClient(1)
		client.MaxResumes = 1
		nodes[1].down()
		nodes[2].down()
		err := doChunkReq(t, http.MethodPost, nodes[0].url+"/v1/bin/put", binBatch(appendBinFrame(nil, SplitSums(data)[0], data[:ChunkSize])), false)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != CodeUnavailable || !ae.Retryable {
			t.Fatalf("bin/put with no peer: %v, want a retryable 503 unavailable", err)
		}
		if _, err := client.StoreFile("alone.bin", data); !errors.Is(err, ErrUnavailable) || !retryable(err) {
			t.Fatalf("store with no peer: %v, want retryable ErrUnavailable", err)
		}
		if _, err := meta.LookupCtx(bg, 0, sum); err == nil {
			t.Fatal("a file was committed without its write quorum")
		}
		checkNoRelayGoroutines(t)
		nodes[1].up()
		nodes[2].up()
		time.Sleep(60 * time.Millisecond) // breaker cooldown
		res, err := client.StoreFile("alone.bin", data)
		if err != nil {
			t.Fatalf("retry once the peers returned: %v", err)
		}
		if got, err := client.RetrieveFile(res.URL); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("retrieve: %v", err)
		}
	})

	t.Run("json-peer", func(t *testing.T) {
		nodes, _, newClient := newDiskRing(t, 3, 2, 2, nil)
		data := chunkedData(t, 64, 4*ChunkSize)
		sums := SplitSums(data)
		if _, err := newClient(1).StoreFile("mixed.bin", data); err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes {
			waitFor(t, nd.url+" to hold the file", func() bool { return holdsAll(nd, sums) })
		}
		checkNoRelayGoroutines(t)
		if b, j := nodes[1].served("POST /bin/put (replica)"), nodes[1].served("PUT /chunk (replica)"); b != 1 || j != 0 {
			t.Errorf("binary peer served %d replica bin/puts and %d JSON PUTs, want 1 and 0", b, j)
		}
		if b, j := nodes[2].served("POST /bin/put (replica)"), nodes[2].served("PUT /chunk (replica)"); b != 0 || j != len(sums) {
			t.Errorf("JSON peer served %d replica bin/puts and %d JSON PUTs, want 0 and %d", b, j, len(sums))
		}
	})

	t.Run("corrupt-frame-k", func(t *testing.T) {
		nodes, _, _ := newDiskRing(t, 3, 2, -1, nil)
		var frames [][]byte
		var good []Sum
		for i := 0; i < 4; i++ {
			sum, data := replChunk(uint64(6500+i), 40<<10)
			frames = append(frames, appendBinFrame(nil, sum, data))
			good = append(good, sum)
		}
		_, data := replChunk(6600, 40<<10)
		bad, claimed := corruptFrame("flipped-bit", data)
		frames[2] = bad
		err := doChunkReq(t, http.MethodPost, nodes[0].url+"/v1/bin/put", binBatch(frames...), false)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != CodeBadDigest {
			t.Fatalf("batch with a corrupt frame: %v, want 400 bad_digest", err)
		}
		checkNoRelayGoroutines(t)
		for i, nd := range nodes {
			for _, s := range []Sum{claimed, SumBytes(bad[recHeaderSize:]), good[3]} {
				if _, err := nd.disk.GetCtx(bg, s); err == nil {
					t.Errorf("node %d holds %s, which follows or is the corrupt frame", i, s)
				}
			}
			// A bad digest is never stored: every record a node holds
			// hashes to the digest it is filed under.
			nd.disk.Range(func(s Sum, _ int64) bool {
				if got, err := nd.disk.GetCtx(bg, s); err != nil || SumBytes(got) != s {
					t.Errorf("node %d holds %s with bad content: %v", i, s, err)
				}
				return true
			})
		}
		if n := nodes[1].served("POST /bin/put (replica)") + nodes[2].served("POST /bin/put (replica)"); n > 2 {
			t.Errorf("%d replica streams for one batch", n)
		}
	})

	t.Run("fewer-puts-than-declared", func(t *testing.T) {
		// The owners were promised three frames and get two: their
		// streams are cut rather than left waiting, and nothing counts.
		nodes, _, _ := newDiskRing(t, 3, 2, -1, nil)
		ctx, group := withSyncGroup(context.Background(), 3)
		for i := 0; i < 2; i++ {
			sum, data := replChunk(uint64(6800+i), 8<<10)
			if err := nodes[0].rs.PutCtx(ctx, sum, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := group.wait(ctx); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("short batch: %v, want ErrUnavailable", err)
		}
		group.release()
		checkNoRelayGoroutines(t)
	})
}

// TestNothingAckedEarly: the handler answers only once every frame has
// W durable copies. The local copy counts once its group fsync returns,
// and a peer's once that peer's own group fsync does. A stalled fsync
// holds the response until enough other owners have synced. A failed
// local fsync queues the local copy for repair. Peers whose fsyncs fail
// turn the batch into a retryable 503.
func TestNothingAckedEarly(t *testing.T) {
	nodes, meta, newClient := newDiskRing(t, 3, 2, -1, nil)
	var mu sync.Mutex
	gates := map[*DiskStore]chan struct{}{}
	failing := map[*DiskStore]bool{}
	hook := func(ds *DiskStore) error {
		mu.Lock()
		gate, bad := gates[ds], failing[ds]
		mu.Unlock()
		if bad {
			return errors.New("fsync: input/output error")
		}
		if gate != nil {
			<-gate
		}
		return nil
	}
	fsyncFault.Store(&hook)
	t.Cleanup(func() { fsyncFault.Store(nil) })
	stall := func(i int) (release func()) {
		gate := make(chan struct{})
		mu.Lock()
		gates[nodes[i].disk] = gate
		mu.Unlock()
		return func() {
			mu.Lock()
			delete(gates, nodes[i].disk)
			mu.Unlock()
			close(gate)
		}
	}
	fail := func(i int, on bool) {
		mu.Lock()
		failing[nodes[i].disk] = on
		mu.Unlock()
	}
	put := func(seed uint64) (Sum, chan error) {
		sum, data := replChunk(seed, 64<<10)
		body := binBatch(appendBinFrame(nil, sum, data))
		acked := make(chan error, 1)
		go func() { acked <- doChunkReq(t, http.MethodPost, nodes[0].url+"/v1/bin/put", body, false) }()
		return sum, acked
	}
	held := func(acked chan error, why string) {
		t.Helper()
		select {
		case err := <-acked:
			t.Fatalf("acknowledged (%v) while %s", err, why)
		case <-time.After(150 * time.Millisecond):
		}
	}
	ack := func(acked chan error, why string) {
		t.Helper()
		select {
		case err := <-acked:
			if err != nil {
				t.Fatalf("%s: %v", why, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no ack after %s", why)
		}
	}

	release1, release2 := stall(1), stall(2)
	sum, acked := put(6700)
	held(acked, "every peer's fsync is stalled")
	release1()
	ack(acked, "a peer's fsync completed, with the local one")
	if !nodes[1].disk.Has(sum) || !nodes[0].disk.Has(sum) {
		t.Fatal("acked before two owners had the chunk durable")
	}
	release2()
	checkNoRelayGoroutines(t)

	// The local fsync is one of the W acks, not a gate in front of them.
	release0, release1 := stall(0), stall(1)
	_, acked = put(6701)
	held(acked, "the local fsync and one peer's are stalled")
	release1()
	ack(acked, "two peers' fsyncs completed, the local one still stalled")
	release0()
	checkNoRelayGoroutines(t)

	fail(0, true)
	sum, acked = put(6702)
	ack(acked, "both peers synced while the local fsync failed")
	checkNoRelayGoroutines(t)
	if n := nodes[0].rs.Underreplicated(); n != 1 {
		t.Fatalf("%d chunks queued for repair after a failed local fsync, want 1", n)
	}
	fail(0, false)
	if nodes[0].rs.RepairNow(); nodes[0].rs.Underreplicated() != 0 || !nodes[0].disk.Has(sum) {
		t.Fatal("repair did not restore the local copy")
	}

	fail(1, true)
	fail(2, true)
	file := chunkedData(t, 68, 3*ChunkSize)
	client := newClient(1)
	client.MaxResumes = 1
	if _, err := client.StoreFile("unsynced.bin", file); !errors.Is(err, ErrUnavailable) || !retryable(err) {
		t.Fatalf("store while every peer's fsync fails: %v, want retryable ErrUnavailable", err)
	}
	if _, err := meta.LookupCtx(bg, 0, SumBytes(file)); err == nil {
		t.Fatal("committed a file no peer could make durable")
	}
	checkNoRelayGoroutines(t)
}

// TestReplicatedHopsAreNotClientRequests: three N=3/W=2 nodes share one
// request log and one set of front-end series. A store writes every
// chunk to all three owners, and a retrieve through owners that lost
// their copies reads them back from peers, yet the log and the series
// count only the client's own requests: one chunk-store and one
// chunk-retrieve record per chunk, each carrying the client's identity.
func TestReplicatedHopsAreNotClientRequests(t *testing.T) {
	nodes, meta := newTestCluster(t, 3, 3, 2)
	col := &Collector{}
	fm := NewFrontEndMetrics(metrics.NewRegistry())
	for _, nd := range nodes {
		nd.fe = NewFrontEnd(FrontEndConfig{Store: nd.rs, Meta: meta, Sink: col, Metrics: fm}).Handler()
		nd.up()
	}
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()
	meta.AddFrontEnd(nodes[0].url)
	client := &Client{MetaURL: metaSrv.URL, UserID: 7, DeviceID: 3, Device: trace.Android, Parallel: 2}

	const chunks = 4
	data := chunkedData(t, 11, chunks*ChunkSize)
	res, err := client.StoreFile("a.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	sums := SplitSums(data)
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		for _, sum := range sums {
			for !nd.local.Has(sum) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never received %s", nd.url, sum)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	// The client reads each chunk from its primary owner; with the
	// primary's copy gone, that owner reads it from a peer.
	primary := func(sum Sum) *clusterNode { return nodeByURL(t, nodes, nodes[0].rs.Owners(sum)[0]) }
	for _, sum := range sums {
		if err := primary(sum).local.Delete(sum); err != nil {
			t.Fatal(err)
		}
	}
	got, err := client.RetrieveFile(res.URL)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("retrieve: %v", err)
	}
	for _, sum := range sums {
		if !primary(sum).local.Has(sum) { // read repair follows a peer read
			t.Fatal("the retrieve did not read a lost copy back from a peer")
		}
	}

	counts := map[trace.ReqType]int{}
	for _, l := range col.Logs() {
		counts[l.Type]++
		if l.UserID != client.UserID {
			t.Errorf("%s record for user %d: a replica hop was logged as a client request", l.Type, l.UserID)
		}
	}
	for _, typ := range []trace.ReqType{trace.ChunkStore, trace.ChunkRetrieve} {
		if counts[typ] != chunks {
			t.Errorf("%d %s records, want %d (one per client chunk)", counts[typ], typ, chunks)
		}
		if n := fm.requests[typ].Value(); n != chunks {
			t.Errorf("mcs_frontend_requests_total{op=%q} = %d, want %d", typ, n, chunks)
		}
	}
}
