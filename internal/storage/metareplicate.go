package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/metrics"
	"mcloud/internal/tracing"
)

// Metadata replication: a standby node pulls committed WAL records
// from the primary over /v1/meta/wal/pull and applies them through the
// same applyRecordLocked path the primary used, so both hold identical
// state. A standby that is too far behind for the primary's in-memory
// tail (or is brand new) is reseeded with a full snapshot — the same
// codec the WAL checkpoint uses. The standby persists what it applies
// to its own WAL, so a promoted or restarted standby recovers exactly
// like a primary.
//
// Writes are rejected on the standby with a retryable 503 (see
// writeGuardLocked); reads are served from the replicated state. This
// is the metadata-plane counterpart of the chunk plane's replicated
// ring: the paper's metadata tier is a replicated database, and the
// request-cloning literature (PAPERS.md) shows a warm replica is what
// masks single-server failure from clients.

// MetaPullRequest asks the primary for every record after sequence
// After, bounded by Limit (default 1024). Epoch is the puller's
// current leadership term: a mismatch means the two nodes may not
// share history, so the primary answers with a snapshot (puller
// behind) or fences itself (puller ahead) instead of streaming
// records across a fork. WaitMS, when nonzero, lets the primary park
// the request until new records exist (long-poll) — this keeps the
// standby's replication ack one RTT behind the primary's appends,
// which is what makes semi-sync commit waits cheap.
type MetaPullRequest struct {
	After  uint64 `json:"after"`
	Limit  int    `json:"limit,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
	WaitMS int    `json:"wait_ms,omitempty"`
}

// MetaPullResponse carries either a batch of records contiguous from
// After+1, or — when the primary's tail no longer reaches that far
// back, or the epochs diverge — a full snapshot to reseed from.
// LastSeq is the primary's newest sequence, so the standby knows
// whether to pull again immediately; Epoch is the primary's term,
// which the standby adopts.
type MetaPullResponse struct {
	LastSeq     uint64          `json:"last_seq"`
	Epoch       uint64          `json:"epoch,omitempty"`
	Records     []MetaWALRecord `json:"records,omitempty"`
	Snapshot    *metaSnapshot   `json:"snapshot,omitempty"`
	SnapshotSeq uint64          `json:"snapshot_seq,omitempty"`
}

// metaPullWaitCap bounds how long one long-poll pull may park.
const metaPullWaitCap = time.Second

// Pull serves one replication batch (primary side).
func (m *Metadata) Pull(req MetaPullRequest) MetaPullResponse {
	limit := req.Limit
	if limit <= 0 || limit > 4096 {
		limit = 1024
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	resp := MetaPullResponse{LastSeq: m.lastSeq, Epoch: m.epoch}
	if req.Epoch == m.epoch && req.After <= m.lastSeq {
		// The pull doubles as the replication ack and lease renewal —
		// but only at epoch parity with a plausible position; a forked
		// standby must not confirm sequences it holds from another
		// timeline.
		m.noteStandbyPull(req.After)
	}
	if req.Epoch != m.epoch {
		// Epoch divergence: the puller's history may be forked (e.g. a
		// deposed primary rejoining as a standby with writes the new
		// primary never saw). Streaming records could interleave two
		// timelines, so force a full reseed at our epoch.
		snap := m.snapshotLocked()
		resp.Snapshot = &snap
		resp.SnapshotSeq = m.lastSeq
		return resp
	}
	if req.After >= m.lastSeq {
		return resp // caught up
	}
	// The tail holds contiguous sequences ending at lastSeq; serve
	// from it when it reaches back to After+1.
	if n := len(m.tail); n > 0 && m.tail[0].Seq <= req.After+1 {
		start := int(req.After + 1 - m.tail[0].Seq)
		end := start + limit
		if end > n {
			end = n
		}
		resp.Records = append(resp.Records, m.tail[start:end]...)
		return resp
	}
	// Too far behind (or fresh): reseed with a snapshot.
	snap := m.snapshotLocked()
	resp.Snapshot = &snap
	resp.SnapshotSeq = m.lastSeq
	return resp
}

// notifyChan returns the channel closed on the next applied record.
func (m *Metadata) notifyChan() chan struct{} {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.notify
}

// PullWait is Pull with long-polling: when the puller is caught up and
// asked to wait, the request parks until a new record is applied, the
// wait cap lapses, or ctx is done. Grabbing the notify channel before
// the Pull closes the missed-wakeup window.
func (m *Metadata) PullWait(ctx context.Context, req MetaPullRequest) MetaPullResponse {
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait > metaPullWaitCap {
		wait = metaPullWaitCap
	}
	deadline := time.Now().Add(wait)
	for {
		ch := m.notifyChan()
		resp := m.Pull(req)
		if len(resp.Records) > 0 || resp.Snapshot != nil || resp.LastSeq > req.After {
			return resp
		}
		remain := time.Until(deadline)
		if wait <= 0 || remain <= 0 || ctx.Err() != nil {
			return resp
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
}

// SetStandby marks this metadata server a read-only replica of
// primary. Mutations are rejected with a retryable 503 until
// promotion. Rejoining as a standby also clears the fenced flag: the
// node has stopped claiming leadership, so there is nothing left to
// fence (fencedBy is kept, so a later promotion still jumps above
// every epoch this node has seen).
func (m *Metadata) SetStandby(primary string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.standby = true
	m.primary = primary
	m.fenced = false
}

// setPuller registers the pull loop feeding this standby, so
// promotion can stop it synchronously.
func (m *Metadata) setPuller(p interface{ Close() }) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puller = p
}

// Promote is the operator-facing manual promotion; errors (which can
// only come from persisting the fence record) leave the node fenced
// rather than half-promoted. See PromoteEpoch.
func (m *Metadata) Promote() {
	_ = m.PromoteEpoch()
}

// PromoteEpoch makes this node the primary for a new, higher epoch:
//
//  1. The registered pull loop is stopped synchronously — after this
//     returns, no in-flight ApplyReplicated batch can land after local
//     writes resume (the race the old flag-flip Promote had).
//  2. The epoch is bumped above both this node's own term and every
//     remote epoch it has observed, and a walOpEpoch fence record is
//     written through the normal log-apply path and fsynced. The new
//     term is durable before the first write is accepted, so even a
//     promote-then-crash sequence recovers into the new epoch.
//
// The node stops being a standby and unfences itself; every record it
// writes from here carries the new epoch, which is what fences the old
// primary when they next share a client or a pull.
func (m *Metadata) PromoteEpoch() error {
	m.mu.Lock()
	p := m.puller
	m.puller = nil
	m.mu.Unlock()
	if p != nil {
		// Outside the lock: the pull loop's ApplyReplicated needs mu to
		// finish the batch Close waits on.
		p.Close()
	}
	m.mu.Lock()
	m.standby = false
	m.primary = ""
	m.fenced = false
	if m.fencedBy > m.epoch {
		m.epoch = m.fencedBy
	}
	m.epoch++
	m.fencedBy = 0
	rec := MetaWALRecord{Op: walOpEpoch}
	lsn, err := m.logApplyLocked(&rec)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.waitDurable(context.Background(), lsn, rec.Seq)
}

// ApplyReplicated applies a contiguous batch of records pulled from
// the primary: mutate through the shared apply path, buffer for
// further replication, append to the local WAL, and wait once for
// durability at the end of the batch. Records at or below the current
// sequence are skipped (the pull raced an earlier apply); a sequence
// gap aborts the batch so the caller can re-pull.
func (m *Metadata) ApplyReplicated(recs []MetaWALRecord) (applied int, err error) {
	var lsn int64
	m.mu.Lock()
	if !m.standby {
		// A batch arriving after promotion (or aimed at a node that was
		// never a standby) must not interleave with local writes — the
		// sequences would collide and the catalogs fork.
		m.mu.Unlock()
		return 0, errNotStandby
	}
	for i := range recs {
		rec := recs[i]
		if rec.Seq <= m.lastSeq {
			continue
		}
		if rec.Seq != m.lastSeq+1 {
			err = fmt.Errorf("storage: meta replicate: sequence gap: have %d, got %d", m.lastSeq, rec.Seq)
			break
		}
		if aerr := m.applyRecordLocked(&rec); aerr != nil {
			err = aerr
			break
		}
		m.lastSeq = rec.Seq
		m.tailAppendLocked(rec)
		if m.wal != nil {
			l, werr := m.wal.Append(&rec)
			if werr != nil {
				err = werr
				break
			}
			lsn = l
		}
		applied++
	}
	wal := m.wal
	m.mu.Unlock()
	if wal != nil && lsn != 0 {
		if derr := wal.WaitDurable(lsn); derr != nil && err == nil {
			err = derr
		}
	}
	return applied, err
}

// errNotStandby rejects replicated batches on a node that is not (or
// no longer) a standby.
var errNotStandby = fmt.Errorf("storage: meta replicate: node is not a standby")

// ResetFromSnapshot discards all local state and reseeds from a
// primary snapshot at seq under the primary's epoch, then checkpoints
// so the local WAL drops its now-obsolete (possibly forked) history.
func (m *Metadata) ResetFromSnapshot(snap metaSnapshot, seq, epoch uint64) error {
	// The reset and its checkpoint hold the checkpoint lock together,
	// so no other checkpoint lands between them.
	if w := m.wal; w != nil {
		w.cpMu.Lock()
		defer w.cpMu.Unlock()
	}
	m.mu.Lock()
	m.byMD5 = make(map[Sum]*FileMeta)
	m.byURL = make(map[string]*FileMeta)
	m.users = make(map[uint64]map[string]*FileMeta)
	m.links = make(map[string]int)
	m.tail = nil
	err := m.restoreLocked(snap)
	if err == nil {
		m.lastSeq = seq
		if epoch > m.epoch {
			m.epoch = epoch
		}
	}
	m.mu.Unlock()
	if err != nil || m.wal == nil {
		return err
	}
	m.wal.reseed = true
	return m.checkpointLocked()
}

// MetaWALStatus is the /meta/wal/status wire form, used by operators
// and the cluster smoke to check replication lag and durability.
type MetaWALStatus struct {
	LastSeq       uint64 `json:"last_seq"`
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	TailLen       int    `json:"tail_len"`
	Files         int    `json:"files"`
	Users         int    `json:"users"`
	Durable       bool   `json:"durable"`
	Standby       bool   `json:"standby"`
	Primary       string `json:"primary,omitempty"`
	// Epoch is the node's leadership term; Fenced marks a deposed
	// primary that rejects writes. Together with Standby these are what
	// clients use to discover the current primary: the non-standby,
	// non-fenced node with the highest epoch.
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced,omitempty"`
	// ReplAckSeq is the highest sequence the attached standby has
	// acknowledged; SyncStandby reports whether one is attached (writes
	// wait for its ack before being acknowledged).
	ReplAckSeq  uint64 `json:"repl_ack_seq,omitempty"`
	SyncStandby bool   `json:"sync_standby,omitempty"`
	// Shard is the user-hash range this node owns; MapVersion the
	// shard-map version it owns it under (0 = unsharded).
	Shard      int    `json:"shard"`
	MapVersion uint64 `json:"map_version,omitempty"`
}

// WALStatus reports the durability/replication/leadership position.
func (m *Metadata) WALStatus() MetaWALStatus {
	m.mu.RLock()
	st := MetaWALStatus{
		LastSeq: m.lastSeq,
		TailLen: len(m.tail),
		Files:   len(m.byURL),
		Users:   len(m.users),
		Durable: m.wal != nil,
		Standby: m.standby,
		Primary: m.primary,
		Epoch:   m.epoch,
		Fenced:  m.fenced,
		Shard:   m.shardID,
	}
	if m.shardMap != nil {
		st.MapVersion = m.shardMap.Version
	}
	if m.wal != nil {
		st.CheckpointSeq = m.wal.Stats().CheckpointSeq
	}
	m.mu.RUnlock()
	m.replMu.Lock()
	st.ReplAckSeq = m.replSeq
	st.SyncStandby = !m.replSeen.IsZero()
	m.replMu.Unlock()
	return st
}

// MetaStandby runs the standby's pull loop against the primary. With
// a failover lease configured (SetFailover), every successful pull
// renews the lease; when pulls have failed for longer than the TTL the
// standby concludes the primary is dead, checks its rivals have not
// already promoted, and promotes itself under a new epoch.
type MetaStandby struct {
	meta     *Metadata
	httpc    *http.Client
	interval time.Duration

	mu      sync.Mutex
	primary string
	stop    chan struct{}
	done    chan struct{}
	closed  bool
	lastOK  time.Time // last successful pull = last lease renewal
	// Failover config: leaseTTL 0 keeps promotion manual. rivals are
	// other metadata nodes consulted before promoting, so two standbys
	// racing for the same dead primary resolve on epoch/position
	// instead of both winning.
	leaseTTL time.Duration
	rivals   []string

	tracer *tracing.Tracer
	logf   func(format string, args ...interface{})

	contacted atomic.Bool // at least one successful pull ever

	pulls      atomic.Int64
	applied    atomic.Int64
	resets     atomic.Int64
	lag        atomic.Int64 // primary lastSeq - local lastSeq at last pull
	errs       atomic.Int64
	promotions atomic.Int64
	aborts     atomic.Int64 // promotions abandoned to a winning rival
}

// NewMetaStandby marks meta as a standby of primary and returns the
// pull loop (not yet started). interval is the error backoff period;
// while the primary is reachable the loop long-polls back-to-back.
// The loop registers itself as meta's puller, so PromoteEpoch stops it
// synchronously.
func NewMetaStandby(meta *Metadata, primary string, httpc *http.Client, interval time.Duration) *MetaStandby {
	if httpc == nil {
		httpc = &http.Client{Timeout: 10 * time.Second}
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	meta.SetStandby(primary)
	s := &MetaStandby{
		meta:     meta,
		primary:  primary,
		httpc:    httpc,
		interval: interval,
	}
	meta.setPuller(s)
	return s
}

// SetFailover arms automatic promotion: when every pull inside ttl
// fails, the standby self-promotes (after losing to any rival that
// promoted first). rivals are the other metadata nodes' base URLs.
func (s *MetaStandby) SetFailover(ttl time.Duration, rivals ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.leaseTTL = ttl
	s.rivals = append([]string(nil), rivals...)
}

// SetTracer attaches a tracer for lease-renew/expiry/promotion spans.
func (s *MetaStandby) SetTracer(tr *tracing.Tracer) { s.tracer = tr }

// SetLogf attaches a logger for failover transitions.
func (s *MetaStandby) SetLogf(f func(format string, args ...interface{})) { s.logf = f }

func (s *MetaStandby) logFailover(format string, args ...interface{}) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// Start launches the pull loop (idempotent with Close; a closed
// standby does not restart).
func (s *MetaStandby) Start() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.lastOK = time.Now() // the lease starts now, not at epoch zero
	stop, done := s.stop, s.done
	s.mu.Unlock()
	go func() {
		promote := s.loop(stop)
		close(done)
		if promote {
			s.finishPromotion()
		}
	}()
}

// loop pulls until stopped; it returns true when the lease expired and
// the standby should promote (after the done channel closes, so the
// promotion's synchronous puller stop cannot deadlock on this
// goroutine).
func (s *MetaStandby) loop(stop chan struct{}) bool {
	for {
		select {
		case <-stop:
			return false
		default:
		}
		behind, err := s.pullOnce()
		if err != nil {
			s.errs.Add(1)
			if s.leaseExpired() {
				if s.contacted.Load() || s.meta.LastSeq() > 0 {
					return true
				}
				// Never reached the primary and holding nothing: there
				// is no state worth promoting; keep trying instead of
				// becoming an empty primary.
			}
			select {
			case <-stop:
				return false
			case <-time.After(s.interval):
			}
			continue
		}
		s.markRenewed(behind)
	}
}

// leaseExpired reports whether pulls have been failing past the TTL.
func (s *MetaStandby) leaseExpired() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaseTTL > 0 && time.Since(s.lastOK) > s.leaseTTL
}

// markRenewed records a successful pull as a lease renewal.
func (s *MetaStandby) markRenewed(behind bool) {
	s.contacted.Store(true)
	s.mu.Lock()
	s.lastOK = time.Now()
	s.mu.Unlock()
	if tr := s.tracer; tr != nil {
		sp := tr.StartRoot(tracing.CompMeta, tracing.SpanLeaseRenew)
		sp.AnnotateInt("lag", s.lag.Load())
		if behind {
			sp.Annotate("behind", "true")
		}
		sp.End()
	}
}

// LeaseAge returns how long ago the lease was last renewed.
func (s *MetaStandby) LeaseAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.lastOK)
}

// finishPromotion runs after the pull loop has exited with an expired
// lease: consult rivals, then either promote under a new epoch or
// retarget the loop at the rival that won.
func (s *MetaStandby) finishPromotion() {
	s.mu.Lock()
	age, primary := time.Since(s.lastOK), s.primary
	s.mu.Unlock()
	var expired *tracing.Span
	if tr := s.tracer; tr != nil {
		expired = tr.StartRoot(tracing.CompMeta, tracing.SpanLeaseExpired)
		expired.Annotate("primary", primary)
		expired.AnnotateInt("age_ms", age.Milliseconds())
	}
	expired.End()
	s.logFailover("meta failover: lease on %s expired (%v since last pull)", primary, age.Round(time.Millisecond))

	if winner, ok := s.rivalWon(); ok {
		s.aborts.Add(1)
		s.logFailover("meta failover: aborting promotion, %s already took over; rejoining as its standby", winner)
		// The winner is the new primary: pull from it instead. Start
		// re-arms stop/done, and SetStandby re-marks the node.
		s.meta.SetStandby(winner)
		s.meta.setPuller(s)
		s.mu.Lock()
		s.primary = winner
		s.mu.Unlock()
		s.Start()
		return
	}

	sp := (*tracing.Span)(nil)
	if tr := s.tracer; tr != nil {
		sp = tr.StartRoot(tracing.CompMeta, tracing.SpanPromote)
	}
	err := s.meta.PromoteEpoch()
	if sp != nil {
		sp.AnnotateInt("epoch", int64(s.meta.Epoch()))
		sp.EndErr(err)
	}
	if err != nil {
		s.logFailover("meta failover: promotion failed: %v", err)
		return
	}
	s.promotions.Add(1)
	s.logFailover("meta failover: promoted to primary at epoch %d (last seq %d)", s.meta.Epoch(), s.meta.LastSeq())
}

// rivalWon asks each rival for its WAL status; a live non-standby
// rival at our epoch or above has already promoted (or never died), so
// this standby must not. A standby rival that is strictly more caught
// up also wins — it will promote and we would lose acked records.
func (s *MetaStandby) rivalWon() (winner string, ok bool) {
	s.mu.Lock()
	rivals := append([]string(nil), s.rivals...)
	s.mu.Unlock()
	localEpoch, localSeq := s.meta.Epoch(), s.meta.LastSeq()
	for _, r := range rivals {
		st, err := fetchWALStatus(context.Background(), s.httpc, r, 2*time.Second)
		if err != nil {
			continue // unreachable rivals don't vote
		}
		if !st.Standby && !st.Fenced && st.Epoch >= localEpoch {
			return r, true
		}
		if st.Standby && st.LastSeq > localSeq {
			return "", true // more caught-up standby should win; stay put
		}
	}
	return "", false
}

// fetchWALStatus reads a metadata node's /v1/meta/wal/status within
// timeout.
func fetchWALStatus(ctx context.Context, httpc *http.Client, base string, timeout time.Duration) (MetaWALStatus, error) {
	var st MetaWALStatus
	err := getJSON(ctx, httpc, base+"/v1/meta/wal/status", timeout, &st)
	return st, err
}

// getJSON is one /v1 GET within timeout, without retries, its 200
// answer decoded into out.
func getJSON(ctx context.Context, httpc *http.Client, url string, timeout time.Duration, out interface{}) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set(APIHeader, APIV1)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := httpc.Do(req.WithContext(ctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Close stops the pull loop and waits for it to exit (idempotent).
// After Close the standby never restarts, even from an in-flight
// promotion abort.
func (s *MetaStandby) Close() {
	s.mu.Lock()
	stop, done, was := s.stop, s.done, s.closed
	s.closed = true
	s.mu.Unlock()
	if !was && stop != nil {
		close(stop)
	}
	if done != nil {
		<-done
	}
}

// pullOnce fetches and applies one batch; behind reports whether the
// primary has more records than we now hold. The request long-polls —
// the primary parks it until records exist — so acks flow back within
// one RTT of every append.
func (s *MetaStandby) pullOnce() (behind bool, err error) {
	s.mu.Lock()
	primary := s.primary
	s.mu.Unlock()
	wait := 4 * s.interval
	if wait > metaPullWaitCap {
		wait = metaPullWaitCap
	}
	req := MetaPullRequest{
		After:  s.meta.LastSeq(),
		Limit:  1024,
		Epoch:  s.meta.Epoch(),
		WaitMS: int(wait / time.Millisecond),
	}
	body, err := json.Marshal(req)
	if err != nil {
		return false, err
	}
	hreq, err := http.NewRequest(http.MethodPost, primary+"/v1/meta/wal/pull", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(APIHeader, APIV1)
	hresp, err := s.httpc.Do(hreq)
	if err != nil {
		return false, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return false, decodeError(hresp)
	}
	var resp MetaPullResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return false, err
	}
	if resp.Epoch < s.meta.Epoch() {
		// A primary behind our epoch is a deposed one still answering;
		// applying its stream would fork us backwards.
		return false, fmt.Errorf("%w: pull source at epoch %d is behind local epoch %d", ErrFenced, resp.Epoch, s.meta.Epoch())
	}
	s.pulls.Add(1)
	switch {
	case resp.Snapshot != nil:
		if err := s.meta.ResetFromSnapshot(*resp.Snapshot, resp.SnapshotSeq, resp.Epoch); err != nil {
			return false, err
		}
		s.resets.Add(1)
	case len(resp.Records) > 0:
		n, err := s.meta.ApplyReplicated(resp.Records)
		s.applied.Add(int64(n))
		if err != nil {
			return false, err
		}
	}
	local := s.meta.LastSeq()
	lag := int64(0)
	if resp.LastSeq > local {
		lag = int64(resp.LastSeq - local)
	}
	s.lag.Store(lag)
	return lag > 0, nil
}

// Instrument registers the standby-side replication series, labeled
// with the shard the standby replicates (call after the metadata
// node's SetShard).
func (s *MetaStandby) Instrument(reg *metrics.Registry) {
	shard := []string{"shard", strconv.Itoa(s.meta.ShardID())}
	reg.CounterFunc("mcs_meta_standby_pulls_total", "Replication pull batches fetched from the primary.",
		func() float64 { return float64(s.pulls.Load()) }, shard...)
	reg.CounterFunc("mcs_meta_standby_applied_total", "Replicated metadata records applied.",
		func() float64 { return float64(s.applied.Load()) }, shard...)
	reg.CounterFunc("mcs_meta_standby_snapshot_resets_total", "Full-snapshot reseeds (standby fell behind the tail).",
		func() float64 { return float64(s.resets.Load()) }, shard...)
	reg.CounterFunc("mcs_meta_standby_pull_errors_total", "Failed replication pulls (primary down or restarting).",
		func() float64 { return float64(s.errs.Load()) }, shard...)
	reg.GaugeFunc("mcs_meta_standby_lag", "Records the standby trails the primary by (at last pull).",
		func() float64 { return float64(s.lag.Load()) }, shard...)
	reg.CounterFunc("mcs_meta_standby_promotions_total", "Automatic promotions performed after lease expiry.",
		func() float64 { return float64(s.promotions.Load()) }, shard...)
	reg.CounterFunc("mcs_meta_standby_promote_aborts_total", "Promotions abandoned because a rival had already taken over.",
		func() float64 { return float64(s.aborts.Load()) }, shard...)
	reg.GaugeFunc("mcs_meta_standby_lease_age_seconds", "Seconds since the last successful pull renewed the primary lease.",
		func() float64 { return s.LeaseAge().Seconds() }, shard...)
}
