package storage

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/metrics"
	"mcloud/internal/tracing"
)

// ReplicatedStore spreads chunks across a cluster of front-end nodes
// the way the paper's deployment spreads one namespace over many
// front-ends (§2): every chunk digest maps, via the consistent-hash
// ring, onto N replica owners; a PUT accepted by any node fans out to
// the owners and acknowledges once W of them have the bytes; a GET is
// served by the nearest live replica, failing over down the owner
// list. Replica sub-requests carry the X-MCS-Replica header, so a
// forwarded request is served from the target's local store and never
// forwarded again — placement converges in one hop from any node.
//
// Failed replica writes are remembered in a repair queue: a
// background loop (and the mcsrebalance pass) re-streams those chunks
// to their owners once they answer again, draining the
// mcs_cluster_underreplicated gauge back to zero.
//
// The store implements ChunkStore, so the front-end, cache and
// instrumentation layers compose with it unchanged. Stats() reports
// the local shard only; cluster-wide occupancy is the ring-weighted
// sum over nodes.
type ReplicatedStore struct {
	peerClient // the replica wire, stamped with this node's peer token

	self  string
	ring  *cluster.Ring
	n, w  int
	local ChunkStore

	repairMu sync.Mutex
	repairQ  map[Sum]map[string]bool // chunk -> owners known to be missing it

	auth *peerAuth // this node's peer token and the ones peers proved (vouch.go)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// ReplicatedConfig configures a ReplicatedStore.
type ReplicatedConfig struct {
	// Self is this node's advertised base URL; it must appear in
	// Peers.
	Self string
	// Peers is the full static membership, including Self. Order does
	// not matter: placement depends only on the member names.
	Peers []string
	// Replicas is N, the owners per chunk (default 3, clamped to the
	// membership size).
	Replicas int
	// WriteQuorum is W, the owner acks required before a PUT is
	// acknowledged (default 2, clamped to Replicas).
	WriteQuorum int
	// Local is this node's own chunk store.
	Local ChunkStore
	// HTTP is the peer transport; nil selects a shared default with
	// connection reuse and timeouts.
	HTTP *http.Client
	// Health tracks peer liveness; nil creates a default breaker
	// (3 consecutive failures, 2s cooldown).
	Health *cluster.Health
	// RepairEvery is the background repair sweep interval; 0 means
	// 2s, negative disables the loop (tests drive RepairNow directly).
	RepairEvery time.Duration
	// DisableBin pins replica traffic to the JSON chunk paths even
	// toward peers advertising mcsbin/1 — set on nodes running with
	// the binary dialect withheld, so a "legacy" node is legacy in
	// both directions.
	DisableBin bool
}

// NewReplicatedStore builds the replication layer and starts its
// repair loop. Call Close at shutdown.
func NewReplicatedStore(cfg ReplicatedConfig) (*ReplicatedStore, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("storage: replicated store needs a local store")
	}
	ring, err := cluster.NewRing(cfg.Peers, 0)
	if err != nil {
		return nil, err
	}
	if !ring.Contains(cfg.Self) {
		return nil, fmt.Errorf("storage: self %q is not in the peer list", cfg.Self)
	}
	n := cfg.Replicas
	if n <= 0 {
		n = 3
	}
	if n > ring.Size() {
		n = ring.Size()
	}
	w := cfg.WriteQuorum
	if w <= 0 {
		w = 2
	}
	if w > n {
		w = n
	}
	httpc := cfg.HTTP
	if httpc == nil {
		httpc = replicaHTTPClient
	}
	health := cfg.Health
	if health == nil {
		health = cluster.NewHealth(0, 0)
	}
	auth, err := newPeerAuth()
	if err != nil {
		return nil, err
	}
	rs := &ReplicatedStore{
		peerClient: peerClient{
			http:       httpc,
			health:     health,
			stamp:      cfg.Self + " " + auth.token,
			disableBin: cfg.DisableBin,
		},
		self:    cfg.Self,
		ring:    ring,
		n:       n,
		w:       w,
		local:   cfg.Local,
		auth:    auth,
		repairQ: make(map[Sum]map[string]bool),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	every := cfg.RepairEvery
	if every == 0 {
		every = 2 * time.Second
	}
	if every > 0 {
		go rs.repairLoop(every)
	} else {
		close(rs.done)
	}
	return rs, nil
}

// Instrument registers the mcs_cluster_* series. Call once, before
// serving.
func (rs *ReplicatedStore) Instrument(reg *metrics.Registry) {
	rs.met = cluster.NewMetrics(reg, rs.ring, rs.health)
	rs.met.SetUnderreplicated(rs.Underreplicated())
	reg.GaugeFunc("mcs_cluster_peers_vouched", "Ring peers whose replica batches this node checks by CRC only.",
		func() float64 { return float64(rs.vouchedPeers()) })
}

// Local returns the node's own store (serves replica-internal
// requests).
func (rs *ReplicatedStore) Local() ChunkStore { return rs.local }

// Info describes the node's placement configuration.
func (rs *ReplicatedStore) Info() ClusterInfo {
	return ClusterInfo{Node: rs.self, Peers: rs.ring.Nodes(), Replicas: rs.n, Quorum: rs.w}
}

// Owners returns the replica set for a chunk, primary first.
func (rs *ReplicatedStore) Owners(sum Sum) []string {
	return rs.ring.Owners(cluster.Key(sum), rs.n)
}

// Close stops the repair loop and the vouch callbacks.
func (rs *ReplicatedStore) Close() error {
	rs.stopOnce.Do(func() { close(rs.stop) })
	<-rs.done
	rs.auth.close()
	return nil
}

// PutCtx implements ChunkStore: write to the N owners, acknowledge at
// W acks. Owners that fail are queued for repair; if the quorum is
// unreachable the error wraps ErrUnavailable (503 to the client, which
// retries). Inside a request's sync group the frame joins the
// request's relay (see relay) and the quorum is waited for with the
// group; any other put is a batch of one.
func (rs *ReplicatedStore) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	owners := rs.Owners(sum)
	// A put that reaches the fan-out unverified is checked here, once,
	// rather than by every owner's store. The header, CRC included, is
	// the one the ingress verified; no owner's send re-encodes or
	// re-checksums it.
	v, err := verifyPut(ctx, sum, data)
	if err != nil {
		return err
	}
	fr := &frame{hdr: v.header(sum, data), payload: data}
	if rl := relayFor(ctx, rs); rl != nil {
		rl.put(ctx, fr, owners)
		return nil
	}
	ctx, g := withSyncGroup(ctx, 1)
	defer g.release()
	relayFor(ctx, rs).put(ctx, fr, owners)
	return g.wait(ctx)
}

// errBatchAbandoned cuts the replica streams of a request that failed
// before its wait.
var errBatchAbandoned = errors.New("storage: batch abandoned before its quorum wait")

// errBatchShort cuts a replica stream whose request declared more frames
// than it put.
var errBatchShort = errors.New("storage: batch put fewer frames than it declared")

// relay is one request's replica fan-out. Each frame is written to the
// local store as it arrives (its fsync owed to the request's sync
// group) and queued at once to every remote owner over one stream per
// owner: a single /v1/bin/put carrying all of that owner's frames, or
// per-frame JSON PUTs to a peer that does not speak mcsbin/1. A stream
// is launched when its length is known — at the owner's first frame
// when every node owns every chunk (N equals the membership, so each
// owner gets the whole batch), else when the request waits. A launched
// stream is runnable from then on but mostly gets a core only once the
// handler blocks, so its first hop often starts late in the handler's
// local puts. The owner acknowledges it all or nothing, after its own
// group fsync. The local group fsync is one more such stream: it runs
// beside the peers' and acks every frame the local store took.
//
// The quorum is still counted per frame: finish returns once every
// frame has W acks or once some frame can no longer reach W. A failed
// stream queues every one of its frames for repair, including after
// the quorum, when the slower owners finish off the hot path.
type relay struct {
	rs     *ReplicatedStore
	span   *tracing.Span   // the batch's fan-out barrier
	ctx    context.Context // the streams'; outlives the request, cancelled by abort
	cancel context.CancelFunc
	batch  int // frames the request declared
	start  time.Time

	mu      sync.Mutex
	frames  []relayFrame
	streams map[string]*peerStream
	local   []int // indices into frames the local store took, fsync owed
	running int   // peer streams started
	results chan peerResult
}

type relayFrame struct {
	sum    Sum
	owners []string
}

// peerStream is the frames one remote owner receives.
type peerStream struct {
	q      *frameQueue
	frames []int // indices into relay.frames
	live   bool  // request started
}

type peerResult struct {
	node string
	err  error
}

func (rs *ReplicatedStore) newRelay(ctx context.Context, batch int) *relay {
	span := tracing.ChildFromContext(ctx, tracing.CompReplicate, tracing.SpanFanout)
	span.AnnotateInt("replicas", int64(rs.n))
	span.AnnotateInt("quorum", int64(rs.w))
	span.AnnotateInt("count", int64(batch))
	sctx, cancel := context.WithCancel(tracing.NewContext(context.Background(), span))
	return &relay{
		rs:      rs,
		span:    span,
		ctx:     sctx,
		cancel:  cancel,
		batch:   batch,
		start:   time.Now(),
		streams: make(map[string]*peerStream),
		results: make(chan peerResult, rs.ring.Size()),
	}
}

// put hands one verified frame to its owners. The remote owners share
// one copy of it: the caller may reuse its buffer as soon as put
// returns, but the streams keep reading.
func (rl *relay) put(ctx context.Context, fr *frame, owners []string) {
	rs := rl.rs
	self := false
	rl.mu.Lock()
	i := len(rl.frames)
	var shared *frame
	for _, o := range owners {
		if o == rs.self {
			self = true
			continue
		}
		if shared == nil {
			shared = &frame{hdr: fr.hdr, payload: append([]byte(nil), fr.payload...)}
		}
		ps := rl.streams[o]
		if ps == nil {
			ps = &peerStream{q: newFrameQueue()}
			rl.streams[o] = ps
			if rs.n == rs.ring.Size() {
				rl.launch(o, ps, rl.batch-i)
			}
		}
		ps.frames = append(ps.frames, i)
		ps.q.push(shared)
	}
	rl.frames = append(rl.frames, relayFrame{sum: fr.digest(), owners: owners})
	if len(rl.frames) == rl.batch {
		// The last frame is in, so every stream's length is known: the
		// rest go out now, while the local copy is written.
		rl.launchAll()
	}
	rl.mu.Unlock()
	if !self {
		return
	}
	sum := fr.digest()
	if err := PutCtx(withVerified(tracing.NewContext(ctx, rl.span), fr), rs.local, sum, fr.payload); err != nil {
		rs.noteMissing(sum, rs.self)
		return
	}
	rl.mu.Lock()
	rl.local = append(rl.local, i)
	rl.mu.Unlock()
}

// launchAll starts every stream not yet running, with the frames it
// has, and cuts a running one promised more than it got — the request
// put fewer frames than it declared (caller holds mu).
func (rl *relay) launchAll() {
	for node, ps := range rl.streams {
		switch {
		case !ps.live:
			rl.launch(node, ps, len(ps.frames))
		case len(ps.frames) < ps.q.count:
			ps.q.cut(errBatchShort)
		}
	}
}

// launch starts one owner's stream of count frames (caller holds mu).
func (rl *relay) launch(node string, ps *peerStream, count int) {
	ps.q.count, ps.live = count, true
	rl.running++
	go func() {
		rl.results <- peerResult{node, rl.rs.sendFrames(rl.ctx, node, ps.q)}
	}()
}

// finish runs syncLocal, the local group fsync, beside the peer
// streams and waits for the write quorum of every frame; it reports
// ErrUnavailable when some frame cannot reach it.
func (rl *relay) finish(syncLocal func() error) (err error) {
	defer func() { rl.span.EndErr(err) }()
	self := rl.rs.self
	rl.mu.Lock()
	rl.launchAll()
	frames, pending := rl.frames, rl.running+1
	owned := map[string][]int{self: rl.local}
	for node, ps := range rl.streams {
		owned[node] = ps.frames
	}
	rl.mu.Unlock()
	go func() { rl.results <- peerResult{self, syncLocal()} }()

	acks := make([]int, len(frames))
	open := make([]int, len(frames)) // owners yet to answer
	for _, idx := range owned {
		for _, i := range idx {
			open[i]++
		}
	}
	var firstErr error
	for ; ; pending-- {
		met, lost := true, -1
		for i := range frames {
			if acks[i] < rl.rs.w {
				met = false
				if acks[i]+open[i] < rl.rs.w {
					lost = i
				}
			}
		}
		if met || lost >= 0 || pending == 0 {
			go rl.drain(pending, true)
			if met {
				rl.rs.met.ObserveFanout(time.Since(rl.start))
				return nil
			}
			i := max(lost, 0)
			return fmt.Errorf("%w: %d/%d owner acks for %s (need %d): %v",
				ErrUnavailable, acks[i], len(frames[i].owners), frames[i].sum, rl.rs.w, firstErr)
		}
		r := <-rl.results
		for _, i := range owned[r.node] {
			open[i]--
			if r.err == nil {
				acks[i]++
			}
		}
		if r.err != nil {
			firstErr = cmp.Or(firstErr, r.err)
			rl.missing(r.node)
		}
	}
}

// abort cuts every stream short; nothing it carried counts.
func (rl *relay) abort(err error) {
	rl.span.EndErr(err)
	rl.cancel()
	rl.mu.Lock()
	for _, ps := range rl.streams {
		ps.q.cut(err)
	}
	pending := rl.running
	rl.mu.Unlock()
	go rl.drain(pending, false)
}

// drain collects the streams still running, queueing a failed one's
// frames for repair when the batch counted.
func (rl *relay) drain(pending int, counted bool) {
	for ; pending > 0; pending-- {
		if r := <-rl.results; r.err != nil && counted {
			rl.missing(r.node)
		}
	}
	rl.cancel()
}

// missing queues every frame of node's stream for repair.
func (rl *relay) missing(node string) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	idx := rl.local
	if node != rl.rs.self {
		idx = rl.streams[node].frames
	}
	for _, i := range idx {
		rl.rs.noteMissing(rl.frames[i].sum, node)
	}
}

// GetCtx implements ChunkStore: serve from the nearest live replica —
// the local store when this node owns the chunk, then the remaining
// owners in ring order, live nodes first. A read that succeeds on a
// remote replica while the local node is an owner missing the bytes
// triggers read repair. Each remote failover read is a span (child of
// the request's span, annotated with the replica node), so a retrieve
// that had to walk the owner list shows every hop.
func (rs *ReplicatedStore) GetCtx(ctx context.Context, sum Sum) ([]byte, error) {
	owners := rs.Owners(sum)
	selfOwner := false
	remote := make([]string, 0, len(owners))
	for _, o := range owners {
		if o == rs.self {
			selfOwner = true
		} else {
			remote = append(remote, o)
		}
	}
	if selfOwner {
		if data, err := rs.local.GetCtx(ctx, sum); err == nil {
			return data, nil
		}
	}
	var firstErr error
	for _, o := range rs.health.Order(remote) {
		fr, err := rs.getReplica(ctx, o, sum)
		if err == nil {
			if o != owners[0] {
				rs.met.GetFailover()
			}
			if selfOwner {
				// Read repair: this node owns the chunk but missed it
				// (it was down during the write, or the chunk predates a
				// membership change).
				if rs.local.PutCtx(withVerified(ctx, fr), sum, fr.payload) == nil {
					rs.met.Repair()
					rs.dropMissing(sum, rs.self)
				}
			}
			return fr.payload, nil
		}
		if IsNotFound(err) {
			continue // a healthy replica missing the chunk; try the next
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w: no live replica answered for %s: %v", ErrUnavailable, sum, firstErr)
	}
	return nil, ErrNotFound
}

// GetReaderCtx implements ChunkStore: when this node owns the chunk
// and holds it locally, the response streams straight from the local
// tier's reader (pin-counted segment region on disk). Otherwise the
// materializing failover path runs — with its health-ordered owner
// walk and read repair intact — and the fetched bytes are wrapped.
func (rs *ReplicatedStore) GetReaderCtx(ctx context.Context, sum Sum) (*ChunkReader, error) {
	for _, o := range rs.Owners(sum) {
		if o != rs.self {
			continue
		}
		if rd, err := rs.local.GetReaderCtx(ctx, sum); err == nil {
			return rd, nil
		}
		break
	}
	data, err := rs.GetCtx(ctx, sum)
	if err != nil {
		return nil, err
	}
	return NewBytesReader(data), nil
}

// Has implements ChunkStore.
func (rs *ReplicatedStore) Has(sum Sum) bool { return rs.MultiHas([]Sum{sum})[0] }

// MultiHas implements MultiHaser with one batched /v1/op/stat probe
// per replica owner instead of a round trip per chunk: rank by rank,
// unresolved digests are grouped by their rank-r owner and asked in
// one request.
func (rs *ReplicatedStore) MultiHas(sums []Sum) []bool {
	out := make([]bool, len(sums))
	unresolved := make([]int, 0, len(sums))
	for i, sum := range sums {
		if rs.local.Has(sum) {
			out[i] = true
		} else {
			unresolved = append(unresolved, i)
		}
	}
	for rank := 0; rank < rs.n && len(unresolved) > 0; rank++ {
		byOwner := make(map[string][]int)
		for _, i := range unresolved {
			owners := rs.Owners(sums[i])
			if rank >= len(owners) {
				continue
			}
			o := owners[rank]
			if o == rs.self { // local already checked
				continue
			}
			byOwner[o] = append(byOwner[o], i)
		}
		// Deterministic probe order keeps test traffic reproducible.
		nodes := make([]string, 0, len(byOwner))
		for o := range byOwner {
			nodes = append(nodes, o)
		}
		sort.Strings(nodes)
		for _, o := range nodes {
			if !rs.health.Alive(o) {
				continue
			}
			idxs := byOwner[o]
			queried := make([]Sum, len(idxs))
			for j, i := range idxs {
				queried[j] = sums[i]
			}
			present, err := rs.statReplica(o, queried)
			if err != nil {
				continue
			}
			for j, i := range idxs {
				if present[j] {
					out[i] = true
				}
			}
		}
		next := unresolved[:0]
		for _, i := range unresolved {
			if !out[i] {
				next = append(next, i)
			}
		}
		unresolved = next
	}
	return out
}

// Stats implements ChunkStore; it reports the node's local shard.
func (rs *ReplicatedStore) Stats() StoreStats { return rs.local.Stats() }

// Underreplicated counts chunks with at least one owner known to be
// missing them.
func (rs *ReplicatedStore) Underreplicated() int {
	rs.repairMu.Lock()
	defer rs.repairMu.Unlock()
	return len(rs.repairQ)
}

// noteMissing queues (chunk, owner) for repair.
func (rs *ReplicatedStore) noteMissing(sum Sum, node string) {
	rs.repairMu.Lock()
	nodes, ok := rs.repairQ[sum]
	if !ok {
		nodes = make(map[string]bool, rs.n)
		rs.repairQ[sum] = nodes
	}
	nodes[node] = true
	depth := len(rs.repairQ)
	rs.repairMu.Unlock()
	rs.met.SetUnderreplicated(depth)
}

// dropMissing clears one repaired (chunk, owner) pair.
func (rs *ReplicatedStore) dropMissing(sum Sum, node string) {
	rs.repairMu.Lock()
	if nodes, ok := rs.repairQ[sum]; ok {
		delete(nodes, node)
		if len(nodes) == 0 {
			delete(rs.repairQ, sum)
		}
	}
	depth := len(rs.repairQ)
	rs.repairMu.Unlock()
	rs.met.SetUnderreplicated(depth)
}

// repairLoop periodically re-streams under-replicated chunks.
func (rs *ReplicatedStore) repairLoop(every time.Duration) {
	defer close(rs.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-rs.stop:
			return
		case <-tick.C:
			rs.RepairNow()
		}
	}
}

// RepairNow synchronously attempts one repair pass over the queue,
// returning how many replicas it re-created. Owners still inside a
// breaker down-window are skipped until their cooldown lapses.
func (rs *ReplicatedStore) RepairNow() int {
	rs.repairMu.Lock()
	work := make(map[Sum][]string, len(rs.repairQ))
	for sum, nodes := range rs.repairQ {
		targets := make([]string, 0, len(nodes))
		for n := range nodes {
			targets = append(targets, n)
		}
		sort.Strings(targets)
		work[sum] = targets
	}
	rs.repairMu.Unlock()

	repaired := 0
	for sum, targets := range work {
		var fr *frame
		for _, node := range targets {
			if node != rs.self && !rs.health.Alive(node) {
				continue
			}
			if fr == nil {
				fr = rs.fetchAny(sum)
				if fr == nil {
					break // no live copy right now; retry next sweep
				}
			}
			if rs.putReplica(withVerified(context.Background(), fr), node, fr) == nil {
				rs.dropMissing(sum, node)
				rs.met.Repair()
				repaired++
			}
		}
	}
	return repaired
}

// fetchAny returns the chunk, framed, from the nearest live copy, nil
// when none answers.
func (rs *ReplicatedStore) fetchAny(sum Sum) *frame {
	if data, err := rs.local.GetCtx(context.Background(), sum); err == nil {
		return sealFrame(sum, data)
	}
	for _, o := range rs.health.Order(rs.Owners(sum)) {
		if o == rs.self {
			continue
		}
		if fr, err := rs.getReplica(context.Background(), o, sum); err == nil {
			return fr
		}
	}
	return nil
}

// --- replica wire calls -------------------------------------------------

// replicaTimeout bounds one replica sub-request; the quorum decides
// overall latency, so a stuck peer must not hold the fan-out hostage.
const replicaTimeout = 15 * time.Second

// replicaHTTPClient is the default peer transport: connection reuse
// sized for intra-cluster chunk traffic, with the sub-request timeout
// baked in (http.Client.Timeout covers the body read too, so no
// per-request context plumbing is needed).
var replicaHTTPClient = &http.Client{
	Timeout: replicaTimeout,
	Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	},
}

// putReplica writes one verified frame to one owner (repair); ctx
// carries its proof.
func (rs *ReplicatedStore) putReplica(ctx context.Context, node string, fr *frame) error {
	if node == rs.self {
		return rs.local.PutCtx(ctx, fr.digest(), fr.payload)
	}
	return rs.sendFrames(ctx, node, newFrameQueue(fr))
}

// peerClient is the replica wire: the requests that act on one node's
// local store and are never forwarded again. A ring member's
// ReplicatedStore embeds one for its fan-out, repair and read
// failover; the rebalancer holds one for its census, copies and
// prunes. They differ only in their values: the rebalancer's carries
// no peer stamp, its own breaker and no metrics.
type peerClient struct {
	http   *http.Client
	health *cluster.Health
	met    *cluster.Metrics // nil until Instrument; nil-safe
	// stamp is the PeerHeader value its mcsbin/1 batches carry (see
	// vouch.go); "" sends none, so every frame is MD5-checked.
	stamp string

	binMu      sync.Mutex
	binPeers   map[string]bool // peer -> last-seen X-MCS-Bin capability
	disableBin bool
}

// do runs one replica sub-request with health accounting. Every
// response also refreshes the peer's advertised dialect set, so bin
// capability is learned (and un-learned, after a downgrade restart)
// without any extra probe traffic.
func (pc *peerClient) do(node string, req *http.Request) (*http.Response, error) {
	resp, err := pc.http.Do(req)
	if err != nil && req.Context().Err() != nil {
		return nil, err // cut short by this node, not the peer's failure
	}
	if err != nil {
		pc.health.ReportFailure(node)
		pc.met.ReplicaError()
		return nil, err
	}
	pc.noteBinPeer(node, resp.Header)
	// A 404 is a healthy node answering "I don't have it" — only
	// transport errors and 5xx count against liveness.
	if resp.StatusCode >= 500 {
		pc.health.ReportFailure(node)
		pc.met.ReplicaError()
	} else {
		pc.health.ReportSuccess(node)
	}
	return resp, nil
}

func (pc *peerClient) noteBinPeer(node string, h http.Header) {
	v := binAdvertised(h)
	pc.binMu.Lock()
	if pc.binPeers == nil {
		pc.binPeers = make(map[string]bool)
	}
	pc.binPeers[node] = v
	pc.binMu.Unlock()
}

func (pc *peerClient) binPeer(node string) bool {
	if pc.disableBin {
		return false
	}
	pc.binMu.Lock()
	ok := pc.binPeers[node]
	pc.binMu.Unlock()
	return ok
}

// sendFrames delivers q to one remote owner under a replica-put span
// whose ID rides the request headers, so the owner's handler span joins
// as its child: one mcsbin/1 request for the whole queue when the owner
// speaks the dialect, else one JSON PUT per frame as it lands. A remote
// is its own ingress: it receives each frame as it stands (header
// verbatim on the binary dialect) and verifies once — by CRC alone
// when it has proven this node's peer stamp, since every frame queued
// here was MD5-verified at this node's ingress or read back from its
// own store.
func (pc *peerClient) sendFrames(ctx context.Context, node string, q *frameQueue) (err error) {
	sp := tracing.ChildFromContext(ctx, tracing.CompReplicate, tracing.SpanReplicaPut)
	sp.Annotate("node", node)
	sp.AnnotateInt("count", int64(q.count))
	defer func() { sp.EndErr(err) }()
	if pc.binPeer(node) {
		sp.Annotate("dialect", BinV1)
		req, err := replicaPutReq(ctx, node, q, pc.stamp)
		if err != nil {
			return err
		}
		return pc.send(sp, node, req)
	}
	for k := 0; k < q.count; k++ {
		fr, err := q.at(k)
		if err != nil {
			return err
		}
		req, err := replicaChunkReq(ctx, node, fr)
		if err != nil {
			return err
		}
		if err := pc.send(sp, node, req); err != nil {
			return err
		}
	}
	return nil
}

// send runs one replica write request and reads its ack.
func (pc *peerClient) send(sp *tracing.Span, node string, req *http.Request) error {
	sp.Inject(req.Header)
	pc.met.ForwardPut()
	return pc.call(node, req, nil)
}

// call runs one replica request and decodes its 200 answer into out,
// or discards it when out is nil.
func (pc *peerClient) call(node string, req *http.Request, out interface{}) error {
	resp, err := pc.do(node, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// deleteReplica drops one chunk from node's local store.
func (pc *peerClient) deleteReplica(node string, sum Sum) error {
	req, err := replicaReq(http.MethodDelete, node, "/v1/chunk/"+sum.String(), nil)
	if err != nil {
		return err
	}
	return pc.call(node, req, nil)
}

// getReplica is the ingress for a chunk read from one remote owner: it
// verifies the bytes once, as they come off the socket, so a corrupt
// replica is never propagated, and returns them as a verified frame.
func (pc *peerClient) getReplica(ctx context.Context, node string, sum Sum) (_ *frame, err error) {
	sp := tracing.ChildFromContext(ctx, tracing.CompReplicate, tracing.SpanReplicaGet)
	sp.Annotate("node", node)
	defer func() { sp.EndErr(err) }()
	bin := pc.binPeer(node)
	if bin {
		sp.Annotate("dialect", BinV1)
	}
	req, err := replicaGetReq(node, sum, bin)
	if err != nil {
		return nil, err
	}
	sp.Inject(req.Header)
	pc.met.ForwardGet()
	resp, err := pc.do(node, req)
	if err != nil {
		return nil, err
	}
	fr, err := readReplicaFrame(resp, sum, bin)
	if errors.Is(err, ErrBadDigest) || errors.Is(err, ErrTooLarge) {
		pc.health.ReportFailure(node)
		err = fmt.Errorf("%w: replica %s returned corrupt bytes for %s: %v", ErrBadDigest, node, sum, err)
	}
	return fr, err
}

// statReplica asks one owner which of the queried chunks it holds.
func (pc *peerClient) statReplica(node string, sums []Sum) ([]bool, error) {
	body, err := json.Marshal(StatRequest{ChunkMD5s: sumStrings(sums)})
	if err != nil {
		return nil, err
	}
	req, err := replicaReq(http.MethodPost, node, "/v1/op/stat", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var sr StatResponse
	if err := pc.call(node, req, &sr); err != nil {
		return nil, err
	}
	missing := make(map[string]bool, len(sr.MissingMD5s))
	for _, m := range sr.MissingMD5s {
		missing[m] = true
	}
	out := make([]bool, len(sums))
	for i, s := range sums {
		out[i] = !missing[s.String()]
	}
	return out, nil
}

// IsNotFound reports a missing-chunk error, local or decoded from the
// wire (typed envelope or a legacy server's bare 404).
func IsNotFound(err error) bool {
	return errors.Is(err, ErrNotFound) || statusOf(err) == http.StatusNotFound
}

// statusOf extracts the HTTP status a wire error arrived with, zero
// for local errors.
func statusOf(err error) int {
	var se *serverError
	if errors.As(err, &se) {
		return se.Status
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}
