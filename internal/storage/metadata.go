package storage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/metrics"
	"mcloud/internal/tracing"
)

// FileMeta is the metadata server's record of one stored file version.
type FileMeta struct {
	Name      string
	Size      int64
	FileMD5   Sum
	ChunkMD5s []Sum
	// Chain holds the file hash's chaining value at every chunk
	// boundary, as the storing client sent them (nil when it sent
	// none). Retrieves check chunks against it; a wrong value costs
	// them one more pass, never a wrong byte.
	Chain []Sum
	URL   string
}

// MetaService is the slice of the metadata plane a storage front-end
// depends on. A front-end colocated with the metadata server uses
// *Metadata directly; a clustered front-end on another node uses
// RemoteMeta, which speaks the same operations over HTTP. Every call
// names the metadata shard it targets — the shard the client's
// store-check or resolve handshake pinned — so the namespace can be
// split across shard groups while a front-end stays a dumb router.
// An unsharded deployment is the one-shard special case: shard 0. The
// context carries the caller's trace (WAL spans join it) and
// cancellation.
type MetaService interface {
	// CommitCtx finalizes a completed upload on the given shard, making
	// the content available for dedup and retrieval.
	CommitCtx(ctx context.Context, shard int, url string, chunkMD5s []Sum) error
	// LookupCtx returns the file record for a content hash from the
	// given shard's catalog.
	LookupCtx(ctx context.Context, shard int, sum Sum) (FileMeta, error)
}

// Metadata is the metadata service (§2.1): it owns user namespaces,
// performs file-level deduplication, maps URLs to content hashes, and
// assigns storage front-ends. It is safe for concurrent use.
type Metadata struct {
	mu        sync.RWMutex
	byMD5     map[Sum]*FileMeta               // content catalog
	byURL     map[string]*FileMeta            // URL resolution
	users     map[uint64]map[string]*FileMeta // user namespace: URL -> file
	links     map[string]int                  // URL -> number of user namespaces linking it
	frontends []string
	nextFE    int
	urlSeq    int64

	dedupHits int64 // uploads avoided entirely by file-level dedup
	checks    int64

	// Durability + replication state. lastSeq numbers every applied
	// mutation; tail buffers the most recent records so standbys can
	// pull them without reading the log back from disk; wal (nil for a
	// RAM-only server) makes mutations crash-safe. A standby applies
	// only replicated records and rejects direct writes.
	lastSeq uint64
	tail    []MetaWALRecord
	wal     *MetaWAL
	standby bool
	primary string // primary's base URL, for standby error messages

	// Leadership state. epoch is the term this node believes it is in;
	// it rises only through a walOpEpoch fence record (promotion) or by
	// adopting a primary's epoch during standby replication. fenced is
	// set when a higher epoch is observed on the wire while this node
	// is acting as a primary: it has been deposed, and every mutation
	// fails with ErrFenced until it rejoins as a standby. fencedBy
	// remembers the highest remote epoch seen, so a later promotion
	// jumps above it.
	epoch    uint64
	fenced   bool
	fencedBy uint64

	// notify is closed and replaced whenever a record is applied; pull
	// long-polling parks on it so standbys learn about new records in
	// one RTT instead of a poll interval.
	notify chan struct{}

	// puller is the standby pull loop feeding this node, registered by
	// NewMetaStandby. Promotion closes it synchronously before local
	// writes resume, so a promotion can never race an in-flight
	// replicated batch.
	puller interface{ Close() }

	// Semi-sync replication ack state, under its own mutex (it is
	// touched on every pull and every durable write, but never inside
	// the catalog lock's hot paths). replSeq is the highest sequence a
	// standby has confirmed — a pull with After=N acknowledges that the
	// standby has durably applied through N. replSeen is the last pull
	// time; zero means no standby is attached and writes are acked on
	// local fsync alone. replCh is closed and replaced on every ack so
	// waiters wake without polling.
	replMu       sync.Mutex
	replSeq      uint64
	replSeen     time.Time
	replCh       chan struct{}
	syncTimeouts atomic.Int64

	// feHealth is the per-front-end circuit breaker consulted by
	// pickFrontEnd, so clients are not handed a dead front-end URL
	// while it is in cooldown.
	feHealth *cluster.Health

	// Shard identity. shardID is the user-hash range this node owns;
	// shardMap is the versioned cluster-wide assignment (nil for an
	// unsharded node, which behaves as the sole shard 0 under map
	// version 0). Both are set once by SetShard before serving.
	shardID  int
	shardMap *cluster.MetaShardMap

	// legacyAPI gates the unversioned /meta/* aliases in Handler;
	// default on for one release (see LegacySunset).
	legacyAPI bool

	met *metadataMetrics // nil until Instrument; set before serving
}

// metaSyncTimeout bounds how long an acked write waits for the
// attached standby to confirm replication. On expiry the standby is
// detached (writes proceed on local durability alone — availability
// over sync replication) and the stalled write fails retryably. Kept
// under RemoteMeta's per-request timeout so front-ends see the error,
// not a hang.
const metaSyncTimeout = 3 * time.Second

// metaTailCap bounds the in-memory replication tail. A standby that
// falls further behind than this is reseeded with a full snapshot.
const metaTailCap = 8192

// metadataMetrics holds the pre-resolved latency histograms for the
// metadata operations.
type metadataMetrics struct {
	storeCheck, resolve, commit, lookup *metrics.Histogram
	shardSkew                           *metrics.Counter
}

// Instrument registers the metadata server's gauges and latency
// histograms, every series labeled with the shard this node owns so a
// scrape across a sharded plane stays disambiguated. Call it once,
// after SetShard and before the server starts handling requests.
func (m *Metadata) Instrument(reg *metrics.Registry) {
	shard := []string{"shard", strconv.Itoa(m.ShardID())}
	reg.GaugeFunc("mcs_meta_files", "File records (committed or reserved URLs).",
		func() float64 { return float64(m.Stats().Files) }, shard...)
	reg.GaugeFunc("mcs_meta_users", "User namespaces holding at least one file.",
		func() float64 { return float64(m.Stats().Users) }, shard...)
	reg.CounterFunc("mcs_meta_checks_total", "Dedup store-check requests handled.",
		func() float64 { return float64(m.Stats().Checks) }, shard...)
	reg.CounterFunc("mcs_meta_dedup_hits_total", "Uploads avoided entirely by file-level dedup.",
		func() float64 { return float64(m.Stats().DedupHits) }, shard...)
	help := "Metadata operation latency by operation."
	opLabels := func(op string) []string { return append([]string{"op", op}, shard...) }
	m.met = &metadataMetrics{
		storeCheck: reg.Histogram("mcs_meta_op_seconds", help, opLabels("store_check")...),
		resolve:    reg.Histogram("mcs_meta_op_seconds", help, opLabels("resolve")...),
		commit:     reg.Histogram("mcs_meta_op_seconds", help, opLabels("commit")...),
		lookup:     reg.Histogram("mcs_meta_op_seconds", help, opLabels("lookup")...),
		shardSkew: reg.Counter("mcs_meta_shard_skew_total",
			"Requests that routed with a shard-map version different from this node's.", shard...),
	}
	reg.GaugeFunc("mcs_meta_wal_last_seq", "Newest applied metadata mutation sequence.",
		func() float64 { return float64(m.LastSeq()) }, shard...)
	reg.GaugeFunc("mcs_meta_epoch", "Current metadata leadership epoch (term).",
		func() float64 { return float64(m.Epoch()) }, shard...)
	reg.GaugeFunc("mcs_meta_fenced", "1 when this node was deposed by a higher epoch and rejects writes.",
		func() float64 {
			if m.Fenced() {
				return 1
			}
			return 0
		}, shard...)
	reg.GaugeFunc("mcs_meta_repl_ack_seq", "Highest mutation sequence the attached standby has acknowledged.",
		func() float64 {
			m.replMu.Lock()
			defer m.replMu.Unlock()
			return float64(m.replSeq)
		}, shard...)
	reg.CounterFunc("mcs_meta_sync_timeouts_total", "Writes that timed out waiting for standby acknowledgement (standby detached).",
		func() float64 { return float64(m.syncTimeouts.Load()) }, shard...)
	reg.GaugeFunc("mcs_meta_frontends_down", "Registered front-ends currently inside a breaker down window.",
		func() float64 { return float64(m.feHealth.Down()) }, shard...)
	reg.GaugeFunc("mcs_meta_shard_map_version", "Shard-map version this node serves under (0 = unsharded).",
		func() float64 { return float64(m.MapVersion()) }, shard...)
	if m.wal != nil {
		m.wal.Instrument(reg)
		reg.GaugeFunc("mcs_meta_wal_records", "WAL records not yet covered by a checkpoint.",
			func() float64 { return float64(m.LastSeq() - m.wal.Stats().CheckpointSeq) }, shard...)
	}
}

// NewMetadata returns a metadata server that will direct clients to
// the given front-end base URLs (round-robin; the measured service
// picks "the closest front-end", which degenerates to round-robin on a
// single site).
func NewMetadata(frontends ...string) *Metadata {
	return &Metadata{
		byMD5:     make(map[Sum]*FileMeta),
		byURL:     make(map[string]*FileMeta),
		users:     make(map[uint64]map[string]*FileMeta),
		links:     make(map[string]int),
		frontends: frontends,
		notify:    make(chan struct{}),
		replCh:    make(chan struct{}),
		feHealth:  cluster.NewHealth(2, 5*time.Second),
		legacyAPI: true,
	}
}

// SetShard assigns this node its place in a sharded metadata plane:
// the user-hash range it owns and the versioned map it owns it under.
// Call before serving; an un-set node is the sole shard 0 of an
// unsharded (map version 0) deployment.
func (m *Metadata) SetShard(id int, smap *cluster.MetaShardMap) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shardID = id
	m.shardMap = smap
}

// SetLegacyAPI gates the unversioned /meta/* aliases (default on).
// Call before Handler.
func (m *Metadata) SetLegacyAPI(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.legacyAPI = on
}

// ShardID returns the shard this node owns.
func (m *Metadata) ShardID() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.shardID
}

// MapVersion returns the shard-map version this node serves under
// (0 = unsharded).
func (m *Metadata) MapVersion() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.shardMap == nil {
		return 0
	}
	return m.shardMap.Version
}

// ShardMapView returns the map served at /v1/meta/shards: the real
// map when sharded, else a synthesized single-shard map at version 0
// whose empty endpoint list tells clients to keep their bootstrap
// endpoints.
func (m *Metadata) ShardMapView() cluster.MetaShardMap {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.shardMap == nil {
		return cluster.MetaShardMap{Version: 0, Shards: []cluster.MetaShard{{ID: m.shardID}}}
	}
	return *m.shardMap
}

// assignmentLocked builds the authoritative redirect payload for a
// wrong_shard rejection (caller holds mu).
func (m *Metadata) assignmentLocked(want int) ShardAssignment {
	a := ShardAssignment{Shard: want}
	if m.shardMap != nil {
		a.MapVersion = m.shardMap.Version
		a.Endpoints = append([]string(nil), m.shardMap.Endpoints(want)...)
	}
	return a
}

// userShardGuardLocked rejects an operation on a user this shard does
// not own, attaching the owner's assignment so the client converges
// in one bounce (caller holds mu). Checked before the write guard:
// "you are talking to the wrong shard group entirely" must win over
// "this group member is a standby", or a misrouted client would
// rotate forever inside the wrong group.
func (m *Metadata) userShardGuardLocked(user uint64) error {
	if m.shardMap == nil {
		return nil
	}
	if want := m.shardMap.ShardFor(user); want != m.shardID {
		return &wrongShardError{assignment: m.assignmentLocked(want)}
	}
	return nil
}

// shardGuardLocked rejects an operation explicitly pinned to a shard
// this node is not (caller holds mu). The pin comes from an earlier
// store-check/resolve response, so a mismatch means the caller's
// routing table is stale for that shard.
func (m *Metadata) shardGuardLocked(shard int) error {
	if shard != m.shardID {
		return &wrongShardError{assignment: m.assignmentLocked(shard)}
	}
	return nil
}

// AddFrontEnd registers another front-end.
func (m *Metadata) AddFrontEnd(baseURL string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frontends = append(m.frontends, baseURL)
}

// pickFrontEnd returns the next front-end whose breaker is closed,
// advancing the round-robin cursor past ones in cooldown (caller
// holds mu). When every breaker is open the plain rotation wins: a
// maybe-dead assignment beats refusing the upload, and the breaker's
// half-open probe will re-admit recovered nodes.
func (m *Metadata) pickFrontEnd() string {
	n := len(m.frontends)
	if n == 0 {
		return ""
	}
	for i := 0; i < n; i++ {
		fe := m.frontends[m.nextFE%n]
		m.nextFE++
		if m.feHealth.Alive(fe) {
			return fe
		}
	}
	fe := m.frontends[m.nextFE%n]
	m.nextFE++
	return fe
}

// ReportFrontEnd feeds the front-end breaker: ok=false counts toward
// opening it, ok=true closes it. Called by the prober and available to
// any caller that observes a front-end failing.
func (m *Metadata) ReportFrontEnd(baseURL string, ok bool) {
	if ok {
		m.feHealth.ReportSuccess(baseURL)
	} else {
		m.feHealth.ReportFailure(baseURL)
	}
}

// ProbeFrontEnds starts a background prober that marks each registered
// front-end alive or dead by hitting its /v1/cluster/info endpoint.
// Any HTTP response counts as alive — the breaker guards against dead
// processes, not degraded ones. Returns a stop function.
func (m *Metadata) ProbeFrontEnds(httpc *http.Client, interval time.Duration) (stop func()) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			m.mu.RLock()
			fes := append([]string(nil), m.frontends...)
			m.mu.RUnlock()
			for _, fe := range fes {
				req, err := http.NewRequest(http.MethodGet, fe+"/v1/cluster/info", nil)
				if err != nil {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				resp, err := httpc.Do(req.WithContext(ctx))
				if resp != nil {
					resp.Body.Close()
				}
				cancel()
				m.ReportFrontEnd(fe, err == nil)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// StoreCheckCtx implements the dedup handshake: if the content is
// known, it links the file into the user's namespace and reports
// Duplicate. Otherwise it reserves a URL and directs the client to a
// front-end. When a WAL is attached, the append and fsync waits show
// up as spans under the caller's trace.
func (m *Metadata) StoreCheckCtx(ctx context.Context, req StoreCheckRequest) (StoreCheckResponse, error) {
	if met := m.met; met != nil {
		defer met.storeCheck.ObserveSince(time.Now())
	}
	sum, err := ParseSum(req.FileMD5)
	if err != nil {
		return StoreCheckResponse{}, err
	}
	app := m.walSpan(ctx, tracing.SpanWALAppend)
	m.mu.Lock()
	if err := m.userShardGuardLocked(req.UserID); err != nil {
		m.mu.Unlock()
		app.EndErr(err)
		return StoreCheckResponse{}, err
	}
	if err := m.writeGuardLocked(); err != nil {
		m.mu.Unlock()
		app.EndErr(err)
		return StoreCheckResponse{}, err
	}
	m.checks++
	var rec MetaWALRecord
	var resp StoreCheckResponse
	resp.Shard = m.shardID
	if f, ok := m.byMD5[sum]; ok {
		m.dedupHits++
		rec = MetaWALRecord{Op: walOpLink, User: req.UserID, URL: f.URL}
		resp.Duplicate, resp.URL = true, f.URL
	} else {
		// The record is provisional until Commit; it reserves the URL
		// but enters the dedup catalog only when chunks land. The
		// reserved sequence rides in the record so replay reproduces
		// URL assignment exactly.
		url := fmt.Sprintf("/f/%x/%d", sum[:4], m.urlSeq+1)
		rec = MetaWALRecord{
			Op: walOpReserve, User: req.UserID, URL: url,
			Name: req.Name, Size: req.Size, FileMD5: req.FileMD5,
			ChainMD5s: sumStrings(parseChain(req.ChainMD5s, req.Size)),
			URLSeq:    m.urlSeq + 1,
		}
		resp.FrontEnd, resp.URL = m.pickFrontEnd(), url
	}
	lsn, err := m.logApplyLocked(&rec)
	m.mu.Unlock()
	app.EndErr(err)
	if err != nil {
		return StoreCheckResponse{}, err
	}
	return resp, m.waitDurable(ctx, lsn, rec.Seq)
}

// linkLocked adds the file to a user's namespace (caller holds mu).
func (m *Metadata) linkLocked(user uint64, f *FileMeta) {
	ns, ok := m.users[user]
	if !ok {
		ns = make(map[string]*FileMeta)
		m.users[user] = ns
	}
	if _, already := ns[f.URL]; !already {
		m.links[f.URL]++
	}
	ns[f.URL] = f
}

// UnlinkCtx removes a file from one user's namespace. When the last
// namespace reference goes away, the catalog entry is dropped and the
// file's chunk digests are returned with lastRef = true so the caller
// can release chunk references. No served route calls it yet; the
// "Served deletion" entry in DESIGN.md lists what one must do with
// those digests. Deduplicated content linked by other users survives.
// WAL waits are traced like StoreCheckCtx's.
func (m *Metadata) UnlinkCtx(ctx context.Context, user uint64, url string) (chunks []Sum, lastRef bool, err error) {
	app := m.walSpan(ctx, tracing.SpanWALAppend)
	m.mu.Lock()
	if err := m.userShardGuardLocked(user); err != nil {
		m.mu.Unlock()
		app.EndErr(err)
		return nil, false, err
	}
	if err := m.writeGuardLocked(); err != nil {
		m.mu.Unlock()
		app.EndErr(err)
		return nil, false, err
	}
	ns, ok := m.users[user]
	if !ok {
		m.mu.Unlock()
		app.End()
		return nil, false, ErrNotFound
	}
	f, ok := ns[url]
	if !ok {
		m.mu.Unlock()
		app.End()
		return nil, false, ErrNotFound
	}
	chunks = f.ChunkMD5s
	lastRef = m.links[url] <= 1
	rec := MetaWALRecord{Op: walOpUnlink, User: user, URL: url}
	lsn, err := m.logApplyLocked(&rec)
	m.mu.Unlock()
	app.EndErr(err)
	if err != nil {
		return nil, false, err
	}
	return chunks, lastRef, m.waitDurable(ctx, lsn, rec.Seq)
}

// CommitCtx finalizes a file upload: the front-end calls it after all
// chunks are stored, making the content available for dedup and
// retrieval. shard is the pin from the store-check that reserved url.
// WAL waits are traced like StoreCheckCtx's.
func (m *Metadata) CommitCtx(ctx context.Context, shard int, url string, chunkMD5s []Sum) error {
	if met := m.met; met != nil {
		defer met.commit.ObserveSince(time.Now())
	}
	app := m.walSpan(ctx, tracing.SpanWALAppend)
	m.mu.Lock()
	if err := m.shardGuardLocked(shard); err != nil {
		m.mu.Unlock()
		app.EndErr(err)
		return err
	}
	if err := m.writeGuardLocked(); err != nil {
		m.mu.Unlock()
		app.EndErr(err)
		return err
	}
	if _, ok := m.byURL[url]; !ok {
		m.mu.Unlock()
		app.End()
		return ErrNotFound
	}
	rec := MetaWALRecord{Op: walOpCommit, URL: url, ChunkMD5s: sumStrings(chunkMD5s)}
	lsn, err := m.logApplyLocked(&rec)
	m.mu.Unlock()
	app.EndErr(err)
	if err != nil {
		return err
	}
	return m.waitDurable(ctx, lsn, rec.Seq)
}

// writeGuardLocked rejects mutations on a node that does not hold the
// write lease: a standby, or a deposed primary that observed a higher
// epoch (caller holds mu). Leadership is the pair (not standby, not
// fenced) — a bare standby bool is not enough, because a SIGKILLed
// primary restarting from its own WAL comes back with standby=false
// and must still be stopped from forking history. Both errors map to
// retryable typed envelopes over /v1, so clients fail over rather
// than surface the rejection.
func (m *Metadata) writeGuardLocked() error {
	if m.fenced {
		return fmt.Errorf("%w: primary at epoch %d deposed by epoch %d", ErrFenced, m.epoch, m.fencedBy)
	}
	if m.standby {
		return fmt.Errorf("%w: metadata standby of %s is read-only", ErrNotPrimary, m.primary)
	}
	return nil
}

// Epoch returns the node's current leadership term.
func (m *Metadata) Epoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// Fenced reports whether this node has been deposed by a higher epoch.
func (m *Metadata) Fenced() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.fenced
}

// ObserveEpoch folds a remotely-observed epoch into this node's view.
// A primary that sees a higher epoch than its own has been deposed —
// someone promoted past it while it was gone — and fences itself so no
// further writes land on the forked timeline. A standby just records
// the observation (its writes are rejected anyway, and its pull loop
// adopts the primary's epoch through the replication stream).
func (m *Metadata) ObserveEpoch(remote uint64) {
	if remote == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if remote > m.epoch {
		if !m.standby {
			m.fenced = true
		}
		if remote > m.fencedBy {
			m.fencedBy = remote
		}
	}
}

// logApplyLocked assigns the next sequence number, applies the record
// through the shared mutation path, buffers it for replication, and
// appends it to the WAL (caller holds mu for writing). The returned
// LSN must be passed to waitDurable after the lock is released; until
// then the mutation is applied but not yet acknowledged durable.
func (m *Metadata) logApplyLocked(rec *MetaWALRecord) (int64, error) {
	rec.Seq = m.lastSeq + 1
	rec.Epoch = m.epoch
	if err := m.applyRecordLocked(rec); err != nil {
		return 0, err
	}
	m.lastSeq = rec.Seq
	m.tailAppendLocked(*rec)
	// Wake long-poll pulls parked on the previous notify channel.
	close(m.notify)
	m.notify = make(chan struct{})
	if m.wal == nil {
		return 0, nil
	}
	return m.wal.Append(rec)
}

// applyRecordLocked is the single mutation path: live operations,
// recovery replay, and standby apply all mutate the maps through it,
// so a replayed log always reproduces the live state (caller holds mu
// for writing).
func (m *Metadata) applyRecordLocked(rec *MetaWALRecord) error {
	// The epoch rides on every record; replay and standby apply adopt
	// rises as they happen (the live path is a no-op — logApplyLocked
	// stamped rec.Epoch from m.epoch).
	if rec.Epoch > m.epoch {
		m.epoch = rec.Epoch
	}
	switch rec.Op {
	case walOpEpoch:
		// Leadership fence: no catalog change, the epoch bump above is
		// the whole mutation.
	case walOpReserve:
		sum, err := ParseSum(rec.FileMD5)
		if err != nil {
			return fmt.Errorf("storage: meta apply reserve: %w", err)
		}
		f := &FileMeta{Name: rec.Name, Size: rec.Size, FileMD5: sum, Chain: parseChain(rec.ChainMD5s, rec.Size), URL: rec.URL}
		m.byURL[rec.URL] = f
		m.linkLocked(rec.User, f)
		if rec.URLSeq > m.urlSeq {
			m.urlSeq = rec.URLSeq
		}
	case walOpLink:
		f, ok := m.byURL[rec.URL]
		if !ok {
			return fmt.Errorf("storage: meta apply link: unknown URL %q", rec.URL)
		}
		m.linkLocked(rec.User, f)
	case walOpCommit:
		f, ok := m.byURL[rec.URL]
		if !ok {
			return fmt.Errorf("storage: meta apply commit: unknown URL %q", rec.URL)
		}
		sums, err := parseSums(rec.ChunkMD5s)
		if err != nil {
			return fmt.Errorf("storage: meta apply commit: %w", err)
		}
		f.ChunkMD5s = sums
		m.byMD5[f.FileMD5] = f
	case walOpUnlink:
		ns, ok := m.users[rec.User]
		if !ok {
			return fmt.Errorf("storage: meta apply unlink: unknown user %d", rec.User)
		}
		f, ok := ns[rec.URL]
		if !ok {
			return fmt.Errorf("storage: meta apply unlink: user %d has no %q", rec.User, rec.URL)
		}
		delete(ns, rec.URL)
		if len(ns) == 0 {
			delete(m.users, rec.User)
		}
		m.links[rec.URL]--
		if m.links[rec.URL] <= 0 {
			delete(m.links, rec.URL)
			delete(m.byURL, rec.URL)
			delete(m.byMD5, f.FileMD5)
		}
	default:
		return fmt.Errorf("storage: meta apply: unknown op %q", rec.Op)
	}
	return nil
}

// tailAppendLocked buffers a record for standby pulls, dropping the
// oldest quarter when full — the tail stays contiguous, and a standby
// that needs older records is reseeded with a snapshot (caller holds
// mu for writing).
func (m *Metadata) tailAppendLocked(rec MetaWALRecord) {
	if len(m.tail) >= metaTailCap {
		n := copy(m.tail, m.tail[metaTailCap/4:])
		m.tail = m.tail[:n]
	}
	m.tail = append(m.tail, rec)
}

// walSpan opens a WAL-append tracing span when durability is on; the
// returned span is nil-safe.
func (m *Metadata) walSpan(ctx context.Context, name string) *tracing.Span {
	if m.wal == nil {
		return nil
	}
	return tracing.ChildFromContext(ctx, tracing.CompMeta, name)
}

// waitDurable blocks until the record behind lsn is fsync-covered,
// tracing the group-commit wait, and then — when a standby is
// attached — until the standby has confirmed replication through seq.
// That second wait is what makes "acked" mean "survives losing the
// primary": a commit answered 200 is already applied and fsynced on
// the standby, so an automatic promotion loses nothing.
func (m *Metadata) waitDurable(ctx context.Context, lsn int64, seq uint64) error {
	if m.wal == nil || lsn == 0 {
		return nil
	}
	fs := tracing.ChildFromContext(ctx, tracing.CompMeta, tracing.SpanWALFsync)
	err := m.wal.WaitDurable(lsn)
	fs.EndErr(err)
	if err != nil {
		return err
	}
	return m.waitReplicated(ctx, seq)
}

// noteStandbyPull records a standby's pull as a replication ack: a
// pull asking for records after N confirms the standby has durably
// applied through N. Also the primary's lease renewal signal.
func (m *Metadata) noteStandbyPull(after uint64) {
	m.replMu.Lock()
	defer m.replMu.Unlock()
	m.replSeen = time.Now()
	if after > m.replSeq {
		m.replSeq = after
	}
	close(m.replCh)
	m.replCh = make(chan struct{})
}

// waitReplicated blocks until the attached standby has acknowledged
// seq, the sync timeout lapses, or ctx is done. On timeout the standby
// is detached — writes fall back to local-durability acks (the
// availability side of semi-sync) — and the stalled write fails with a
// retryable error so the client does not treat it as replicated.
func (m *Metadata) waitReplicated(ctx context.Context, seq uint64) error {
	deadline := time.Now().Add(metaSyncTimeout)
	for {
		m.replMu.Lock()
		if m.replSeen.IsZero() || m.replSeq >= seq {
			m.replMu.Unlock()
			return nil
		}
		ch := m.replCh
		m.replMu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			m.replMu.Lock()
			// Re-check under the lock; the ack may have raced the timer.
			if m.replSeen.IsZero() || m.replSeq >= seq {
				m.replMu.Unlock()
				return nil
			}
			m.replSeen = time.Time{} // detach the stalled standby
			m.replMu.Unlock()
			m.syncTimeouts.Add(1)
			return fmt.Errorf("%w: standby did not acknowledge seq %d within %v", ErrUnavailable, seq, metaSyncTimeout)
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		t.Stop()
	}
}

// Resolve maps a file URL to its content hash and a front-end, for
// retrievals. Unlike the namespace writes, resolve carries NO
// user-shard guard: a URL is a shareable capability, resolvable by
// any user, and it lives on the shard of the user who stored it — a
// shard the requester's own hash says nothing about. A miss here is
// an honest not_found for this shard; sharded clients scatter the
// resolve across the remaining shards before giving up. The chunk list
// comes from the catalog entry LookupCtx returns for the file digest,
// so a reserved URL whose content is not committed yet resolves with
// none, and its retrieve still ends in the operation request's
// not_found. The chain values come from the same entry.
func (m *Metadata) Resolve(req ResolveRequest) (ResolveResponse, error) {
	if met := m.met; met != nil {
		defer met.resolve.ObserveSince(time.Now())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.byURL[req.URL]
	if !ok {
		return ResolveResponse{}, ErrNotFound
	}
	resp := ResolveResponse{
		FileMD5:  f.FileMD5.String(),
		Size:     f.Size,
		FrontEnd: m.pickFrontEnd(),
		Shard:    m.shardID,
	}
	if cat, ok := m.byMD5[f.FileMD5]; ok {
		resp.ChunkMD5s = sumStrings(cat.ChunkMD5s)
		resp.ChainMD5s = sumStrings(cat.Chain)
	}
	return resp, nil
}

// LookupCtx returns the file record for a content hash from this
// shard's catalog. shard is the pin from the resolve that named the
// hash. Reads don't touch the WAL, so there is nothing to trace here.
func (m *Metadata) LookupCtx(_ context.Context, shard int, sum Sum) (FileMeta, error) {
	if met := m.met; met != nil {
		defer met.lookup.ObserveSince(time.Now())
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.shardGuardLocked(shard); err != nil {
		return FileMeta{}, err
	}
	f, ok := m.byMD5[sum]
	if !ok {
		return FileMeta{}, ErrNotFound
	}
	return *f, nil
}

// LookupURL returns the file record behind a URL even before commit.
func (m *Metadata) LookupURL(url string) (FileMeta, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.byURL[url]
	if !ok {
		return FileMeta{}, ErrNotFound
	}
	return *f, nil
}

// UserFiles lists the URLs in a user's namespace.
func (m *Metadata) UserFiles(user uint64) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var urls []string
	for u := range m.users[user] {
		urls = append(urls, u)
	}
	return urls
}

// MetaStats reports metadata server counters.
type MetaStats struct {
	Files     int
	Users     int
	Checks    int64
	DedupHits int64
}

// Stats returns a snapshot of the counters.
func (m *Metadata) Stats() MetaStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return MetaStats{
		Files:     len(m.byURL),
		Users:     len(m.users),
		Checks:    m.checks,
		DedupHits: m.dedupHits,
	}
}

// CommitRequest is the wire form of MetaService.Commit, used by
// clustered front-ends without a colocated metadata server.
type CommitRequest struct {
	Shard     int      `json:"shard"`
	URL       string   `json:"url"`
	ChunkMD5s []string `json:"chunk_md5s"`
}

// LookupRequest is the wire form of MetaService.Lookup.
type LookupRequest struct {
	Shard   int    `json:"shard"`
	FileMD5 string `json:"file_md5"`
}

// LookupResponse carries a FileMeta over the wire.
type LookupResponse struct {
	Name      string   `json:"name"`
	Size      int64    `json:"size"`
	FileMD5   string   `json:"file_md5"`
	ChunkMD5s []string `json:"chunk_md5s"`
	URL       string   `json:"url"`
}

// MetaUserInfo is one row of the /v1/meta/users census: a user
// namespace held by this shard, and whether the current map says it
// belongs elsewhere (a resharding leftover).
type MetaUserInfo struct {
	User      uint64 `json:"user"`
	Files     int    `json:"files"`
	Misplaced bool   `json:"misplaced,omitempty"`
}

// MetaUsersResponse is the census reply.
type MetaUsersResponse struct {
	Shard      int            `json:"shard"`
	MapVersion uint64         `json:"map_version"`
	Users      []MetaUserInfo `json:"users"`
}

// MetaExportFile is one file of a user's namespace in transit between
// shards during a reshard: everything needed to reproduce the
// reserve (+ commit, when the upload finished) on the destination.
type MetaExportFile struct {
	Name      string   `json:"name"`
	Size      int64    `json:"size"`
	FileMD5   string   `json:"file_md5"`
	ChunkMD5s []string `json:"chunk_md5s,omitempty"`
	ChainMD5s []string `json:"chain_md5s,omitempty"`
	URL       string   `json:"url"`
	Committed bool     `json:"committed"`
}

// MetaExportRequest / MetaExportResponse are the read-only half of a
// user move: dump one user's namespace. Export is served even by a
// shard that no longer owns the user under the current map — that is
// the whole point.
type MetaExportRequest struct {
	User uint64 `json:"user"`
}

type MetaExportResponse struct {
	User  uint64           `json:"user"`
	Files []MetaExportFile `json:"files"`
}

// MetaImportRequest replays an exported namespace onto the shard that
// owns the user under the current map (guarded: an import for a user
// this shard does not own is a wrong_shard).
type MetaImportRequest struct {
	User  uint64           `json:"user"`
	Files []MetaExportFile `json:"files"`
}

type MetaImportResponse struct {
	Imported int `json:"imported"`
}

// MetaEvictRequest drops a user's namespace from a shard that no
// longer owns it (inverse-guarded: evicting a user this shard still
// owns is refused — that would be data loss, not a move).
type MetaEvictRequest struct {
	User uint64 `json:"user"`
}

type MetaEvictResponse struct {
	Evicted int `json:"evicted"`
}

// UsersCensus lists every user namespace this shard holds, flagging
// the ones the current map assigns elsewhere. The rebalancer's
// discovery step; like ExportUser, answered by the primary only.
func (m *Metadata) UsersCensus() (MetaUsersResponse, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.writeGuardLocked(); err != nil {
		return MetaUsersResponse{}, err
	}
	resp := MetaUsersResponse{Shard: m.shardID, Users: []MetaUserInfo{}}
	if m.shardMap != nil {
		resp.MapVersion = m.shardMap.Version
	}
	for user, ns := range m.users {
		info := MetaUserInfo{User: user, Files: len(ns)}
		if m.shardMap != nil && m.shardMap.ShardFor(user) != m.shardID {
			info.Misplaced = true
		}
		resp.Users = append(resp.Users, info)
	}
	return resp, nil
}

// ExportUser dumps one user's namespace for a shard move. Read-only
// and deliberately shard-unguarded: the source of a move is by
// definition no longer the owner. It is write-guarded all the same: a
// move evicts what its export listed, so a lagging standby's or fenced
// ex-primary's subset must never stand in for the primary's namespace.
// They answer not_primary or fenced, and the router re-elects.
func (m *Metadata) ExportUser(user uint64) (MetaExportResponse, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.writeGuardLocked(); err != nil {
		return MetaExportResponse{}, err
	}
	ns, ok := m.users[user]
	if !ok {
		return MetaExportResponse{}, ErrNotFound
	}
	resp := MetaExportResponse{User: user}
	for _, f := range ns {
		ef := MetaExportFile{
			Name: f.Name, Size: f.Size, FileMD5: f.FileMD5.String(), URL: f.URL,
			ChainMD5s: sumStrings(f.Chain),
		}
		if cat, committed := m.byMD5[f.FileMD5]; committed && cat == f {
			ef.Committed = true
			ef.ChunkMD5s = sumStrings(f.ChunkMD5s)
		}
		resp.Files = append(resp.Files, ef)
	}
	return resp, nil
}

// ImportUser replays an exported namespace through the WAL path:
// reserve (with the source-minted URL preserved, so client-held URLs
// survive the move) then commit for finished uploads. Guarded — the
// user must hash to this shard under the current map. Idempotent for
// URLs already present with the same content; a URL collision with
// different content aborts the import.
func (m *Metadata) ImportUser(ctx context.Context, req MetaImportRequest) (MetaImportResponse, error) {
	app := m.walSpan(ctx, tracing.SpanWALAppend)
	m.mu.Lock()
	if err := m.userShardGuardLocked(req.User); err != nil {
		m.mu.Unlock()
		app.EndErr(err)
		return MetaImportResponse{}, err
	}
	if err := m.writeGuardLocked(); err != nil {
		m.mu.Unlock()
		app.EndErr(err)
		return MetaImportResponse{}, err
	}
	var lsn int64
	var seq uint64
	var imported int
	for _, f := range req.Files {
		if existing, ok := m.byURL[f.URL]; ok {
			if existing.FileMD5.String() != f.FileMD5 {
				m.mu.Unlock()
				err := fmt.Errorf("storage: meta import: URL %q already holds different content", f.URL)
				app.EndErr(err)
				return MetaImportResponse{}, err
			}
			rec := MetaWALRecord{Op: walOpLink, User: req.User, URL: f.URL}
			l, err := m.logApplyLocked(&rec)
			if err != nil {
				m.mu.Unlock()
				app.EndErr(err)
				return MetaImportResponse{}, err
			}
			lsn, seq = l, rec.Seq
			imported++
			continue
		}
		rec := MetaWALRecord{
			Op: walOpReserve, User: req.User, URL: f.URL,
			Name: f.Name, Size: f.Size, FileMD5: f.FileMD5,
			ChainMD5s: sumStrings(parseChain(f.ChainMD5s, f.Size)),
		}
		l, err := m.logApplyLocked(&rec)
		if err != nil {
			m.mu.Unlock()
			app.EndErr(err)
			return MetaImportResponse{}, err
		}
		lsn, seq = l, rec.Seq
		if f.Committed {
			crec := MetaWALRecord{Op: walOpCommit, URL: f.URL, ChunkMD5s: f.ChunkMD5s}
			if l, err = m.logApplyLocked(&crec); err != nil {
				m.mu.Unlock()
				app.EndErr(err)
				return MetaImportResponse{}, err
			}
			lsn, seq = l, crec.Seq
		}
		imported++
	}
	m.mu.Unlock()
	app.End()
	if imported == 0 {
		return MetaImportResponse{}, nil
	}
	return MetaImportResponse{Imported: imported}, m.waitDurable(ctx, lsn, seq)
}

// EvictUser drops a user's namespace after a successful move away.
// Inverse-guarded: a sharded node refuses to evict a user it still
// owns. The unlink records flow through the WAL like any mutation, so
// standbys and replay agree the namespace is gone.
func (m *Metadata) EvictUser(ctx context.Context, user uint64) (MetaEvictResponse, error) {
	app := m.walSpan(ctx, tracing.SpanWALAppend)
	m.mu.Lock()
	if m.shardMap != nil && m.shardMap.ShardFor(user) == m.shardID {
		m.mu.Unlock()
		err := fmt.Errorf("storage: meta evict: shard %d still owns user %d", m.shardID, user)
		app.EndErr(err)
		return MetaEvictResponse{}, err
	}
	if err := m.writeGuardLocked(); err != nil {
		m.mu.Unlock()
		app.EndErr(err)
		return MetaEvictResponse{}, err
	}
	ns, ok := m.users[user]
	if !ok {
		m.mu.Unlock()
		app.End()
		return MetaEvictResponse{}, ErrNotFound
	}
	urls := make([]string, 0, len(ns))
	for url := range ns {
		urls = append(urls, url)
	}
	var lsn int64
	var seq uint64
	for _, url := range urls {
		rec := MetaWALRecord{Op: walOpUnlink, User: user, URL: url}
		l, err := m.logApplyLocked(&rec)
		if err != nil {
			m.mu.Unlock()
			app.EndErr(err)
			return MetaEvictResponse{}, err
		}
		lsn, seq = l, rec.Seq
	}
	m.mu.Unlock()
	app.End()
	if len(urls) == 0 {
		return MetaEvictResponse{}, nil
	}
	return MetaEvictResponse{Evicted: len(urls)}, m.waitDurable(ctx, lsn, seq)
}

// Handler returns the metadata server's HTTP API:
//
//	POST /v1/meta/store-check  StoreCheckRequest -> StoreCheckResponse
//	POST /v1/meta/resolve      ResolveRequest -> ResolveResponse
//	POST /v1/meta/commit       CommitRequest (front-end internal)
//	POST /v1/meta/lookup       LookupRequest -> LookupResponse (front-end internal)
//	POST /v1/meta/wal/pull     MetaPullRequest -> MetaPullResponse (standby internal)
//	GET  /v1/meta/wal/status   MetaWALStatus
//	GET  /v1/meta/shards       cluster.MetaShardMap (the versioned shard map)
//	POST /v1/meta/users        MetaUsersResponse (rebalancer census)
//	POST /v1/meta/export       MetaExportRequest -> MetaExportResponse
//	POST /v1/meta/import       MetaImportRequest -> MetaImportResponse
//	POST /v1/meta/evict        MetaEvictRequest -> MetaEvictResponse
//
// The first six also answer on their unversioned /meta/* aliases
// while -legacyapi is on (stamped with Deprecation/Sunset headers);
// the shard-era endpoints are /v1-only. Every response carries the
// X-MCS-API stamp plus the epoch and shard exchange headers; requests
// advertising v1 receive the typed error envelope. Mutations on a
// standby answer 503 with a retryable envelope so front-ends fail
// over to the primary; operations for a user another shard owns
// answer 421 with a wrong_shard envelope carrying the authoritative
// assignment.
func (m *Metadata) Handler() http.Handler {
	m.mu.RLock()
	legacy := m.legacyAPI
	m.mu.RUnlock()
	mux := http.NewServeMux()
	registerBothGated(mux, legacy, "/meta/store-check", func(w http.ResponseWriter, r *http.Request) {
		var req StoreCheckRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := m.StoreCheckCtx(r.Context(), req)
		if err != nil {
			writeAPIError(w, r, metaErrStatus(err, http.StatusBadRequest), err)
			return
		}
		writeJSON(w, resp)
	})
	registerBothGated(mux, legacy, "/meta/resolve", func(w http.ResponseWriter, r *http.Request) {
		var req ResolveRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := m.Resolve(req)
		if err != nil {
			writeAPIError(w, r, http.StatusNotFound, err)
			return
		}
		writeJSON(w, resp)
	})
	registerBothGated(mux, legacy, "/meta/commit", func(w http.ResponseWriter, r *http.Request) {
		var req CommitRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		sums, err := parseSums(req.ChunkMD5s)
		if err != nil {
			writeAPIError(w, r, http.StatusBadRequest, err)
			return
		}
		if err := m.CommitCtx(r.Context(), req.Shard, req.URL, sums); err != nil {
			writeAPIError(w, r, metaErrStatus(err, http.StatusNotFound), err)
			return
		}
		writeJSON(w, FileOpResponse{OK: true})
	})
	registerBothGated(mux, legacy, "/meta/lookup", func(w http.ResponseWriter, r *http.Request) {
		var req LookupRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		sum, err := ParseSum(req.FileMD5)
		if err != nil {
			writeAPIError(w, r, http.StatusBadRequest, err)
			return
		}
		f, err := m.LookupCtx(r.Context(), req.Shard, sum)
		if err != nil {
			writeAPIError(w, r, http.StatusNotFound, err)
			return
		}
		writeJSON(w, LookupResponse{
			Name:      f.Name,
			Size:      f.Size,
			FileMD5:   f.FileMD5.String(),
			ChunkMD5s: sumStrings(f.ChunkMD5s),
			URL:       f.URL,
		})
	})
	registerBothGated(mux, legacy, "/meta/wal/pull", func(w http.ResponseWriter, r *http.Request) {
		var req MetaPullRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		// A puller announcing a higher epoch than ours means a newer
		// primary exists: fence (if we think we are a primary) and
		// refuse to serve — our tail may be forked history.
		m.ObserveEpoch(req.Epoch)
		if m.Fenced() {
			err := fmt.Errorf("%w: pull refused, this node's epoch %d was superseded", ErrFenced, m.Epoch())
			writeAPIError(w, r, metaErrStatus(err, http.StatusServiceUnavailable), err)
			return
		}
		writeJSON(w, m.PullWait(r.Context(), req))
	})
	registerBothGated(mux, legacy, "/meta/wal/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeAPIError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("storage: method %s not allowed", r.Method))
			return
		}
		writeJSON(w, m.WALStatus())
	})
	// Shard-era endpoints: /v1-only, no legacy aliases to deprecate.
	mux.HandleFunc("/v1/meta/shards", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeAPIError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("storage: method %s not allowed", r.Method))
			return
		}
		writeJSON(w, m.ShardMapView())
	})
	mux.HandleFunc("/v1/meta/users", func(w http.ResponseWriter, r *http.Request) {
		var req struct{}
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := m.UsersCensus()
		if err != nil {
			writeAPIError(w, r, metaErrStatus(err, http.StatusInternalServerError), err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/v1/meta/export", func(w http.ResponseWriter, r *http.Request) {
		var req MetaExportRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := m.ExportUser(req.User)
		if err != nil {
			writeAPIError(w, r, metaErrStatus(err, http.StatusNotFound), err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/v1/meta/import", func(w http.ResponseWriter, r *http.Request) {
		var req MetaImportRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := m.ImportUser(r.Context(), req)
		if err != nil {
			writeAPIError(w, r, metaErrStatus(err, http.StatusBadRequest), err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/v1/meta/evict", func(w http.ResponseWriter, r *http.Request) {
		var req MetaEvictRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := m.EvictUser(r.Context(), req.User)
		if err != nil {
			writeAPIError(w, r, metaErrStatus(err, http.StatusBadRequest), err)
			return
		}
		writeJSON(w, resp)
	})
	return advertiseV1(m.shardExchange(m.epochExchange(mux)))
}

// shardExchange is the routing middleware, the shard-plane mirror of
// epochExchange: every /meta/* response is stamped with
// "<shard>@<map-version>" naming the shard this node serves. The
// request side carries the shard the client *meant* to reach and the
// map version it routed with; a client that routed with an older map
// is counted (the per-op guards produce the actual wrong_shard
// redirect, with the authoritative assignment attached).
func (m *Metadata) shardExchange(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(MetaShardHeader); v != "" {
			if _, mv, ok := ParseMetaShard(v); ok && m.met != nil && mv != m.MapVersion() {
				m.met.shardSkew.Add(1)
			}
		}
		w.Header().Set(MetaShardHeader, FormatMetaShard(m.ShardID(), m.MapVersion()))
		next.ServeHTTP(w, r)
	})
}

// epochExchange is the fencing middleware: every /meta/* response is
// stamped with this node's current epoch, and every request's echoed
// epoch is folded back in. This is how a deposed primary finds out —
// the first client that talked to the new primary carries the newer
// epoch here, and the write guard starts rejecting.
func (m *Metadata) epochExchange(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(MetaEpochHeader); v != "" {
			if e, err := strconv.ParseUint(v, 10, 64); err == nil {
				m.ObserveEpoch(e)
			}
		}
		w.Header().Set(MetaEpochHeader, strconv.FormatUint(m.Epoch(), 10))
		next.ServeHTTP(w, r)
	})
}

// metaErrStatus maps a metadata mutation error to an HTTP status:
// standby/fencing rejections (and any other unavailability) are 503 so
// the typed envelope marks them retryable; everything else keeps the
// handler's default.
func metaErrStatus(err error, fallback int) int {
	if IsUnavailable(err) || errors.Is(err, ErrFenced) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

// parseSums decodes a list of hex digests.
func parseSums(strs []string) ([]Sum, error) {
	sums := make([]Sum, len(strs))
	for i, s := range strs {
		var err error
		if sums[i], err = ParseSum(s); err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// parseChain decodes a file's chaining values, or returns nil when the
// list does not parse or does not hold one value per chunk boundary,
// ceil(size/ChunkSize)-1: a chain is an optional hint, so a bad one is
// dropped rather than refused.
func parseChain(strs []string, size int64) []Sum {
	if len(strs) == 0 || int64(len(strs)) != (size+ChunkSize-1)/ChunkSize-1 {
		return nil
	}
	chain, err := parseSums(strs)
	if err != nil {
		return nil
	}
	return chain
}

// sumStrings renders digests as hex.
func sumStrings(sums []Sum) []string {
	strs := make([]string, len(sums))
	for i, s := range sums {
		strs[i] = s.String()
	}
	return strs
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		writeAPIError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("storage: method %s not allowed", r.Method))
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeAPIError(w, r, http.StatusBadRequest, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	writeJSONBody(w, v)
}

// writeJSONBody encodes v after headers/status are already committed.
func writeJSONBody(w http.ResponseWriter, v interface{}) {
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}
