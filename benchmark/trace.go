package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/storage"
)

// The traced run records spans from this package's own files only:
// wrappers around the calls into each layer of the service, installed
// when the stack is built. The untraced run installs none of them.

// layer names the repo module a span's self time is charged to.
type layer uint8

const (
	layerClient      layer = iota // storage.Client + loopback
	layerFrontEnd                 // FrontEnd.Handler
	layerMetadata                 // Metadata.Handler + MetaService calls, WAL included
	layerCache                    // CachedStore
	layerDisk                     // DiskStore
	layerReplication              // ReplicatedStore + internal/cluster: replica hops
	numLayers
)

var layerNames = [numLayers]string{"client", "frontend", "metadata", "cache", "disk", "replication"}

type spanKind uint8

const (
	spClientStore spanKind = iota
	spClientRetrieve
	spFEHTTP
	spMetaHTTP
	spMetaCommit
	spMetaLookup
	spStorePut
	spStoreGet
	spDiskPut
	spDiskGet
	spReplHop  // one replica sub-request, timed at the sender's transport
	spReplHTTP // the same sub-request inside the peer's handler
)

var spanKinds = [...]struct {
	name  string
	layer layer
}{
	spClientStore:    {"client.store", layerClient},
	spClientRetrieve: {"client.retrieve", layerClient},
	spFEHTTP:         {"fe.http", layerFrontEnd},
	spMetaHTTP:       {"meta.http", layerMetadata},
	spMetaCommit:     {"meta.commit", layerMetadata},
	spMetaLookup:     {"meta.lookup", layerMetadata},
	spStorePut:       {"store.put", layerCache},
	spStoreGet:       {"store.get", layerCache},
	spDiskPut:        {"disk.put", layerDisk},
	spDiskGet:        {"disk.get", layerDisk},
	spReplHop:        {"repl.hop", layerReplication},
	spReplHTTP:       {"repl.http", layerReplication},
}

func (k spanKind) root() bool { return k == spClientStore || k == spClientRetrieve }

// span is one timed call into a layer. Times are nanoseconds since
// the tracer's epoch; Parent 0 means the cause was not visible from
// outside the program (see linkHops).
type span struct {
	ID, Parent uint32
	Kind       spanKind
	Err        bool
	Key        uint64 // chunk digest prefix on store-layer spans
	Start, End int64
}

type tracer struct {
	epoch  time.Time
	nextID atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

type liveSpan struct {
	t *tracer
	span
}

func (t *tracer) start(kind spanKind, parent uint32) *liveSpan {
	return &liveSpan{t: t, span: span{ID: t.nextID.Add(1), Parent: parent, Kind: kind, Start: t.now()}}
}

func (s *liveSpan) end(failed bool) {
	s.End = s.t.now()
	s.Err = failed
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.span)
	s.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanCtxKey struct{}

// parentOf returns the ID of the span the context runs under, or 0.
func parentOf(ctx context.Context) uint32 {
	if sp, ok := ctx.Value(spanCtxKey{}).(*liveSpan); ok {
		return sp.ID
	}
	return 0
}

// opHeader carries the ID of the span that caused a request: the root
// span of the device's current file operation, or a replica hop.
const opHeader = "X-Bench-Op"

// opStamper is a device's transport: a device runs one file operation
// at a time, so every request it sends belongs to the root span in cur.
type opStamper struct {
	next http.RoundTripper
	cur  *atomic.Uint32
}

func (s opStamper) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.FormatUint(uint64(s.cur.Load()), 10))
	return s.next.RoundTrip(req)
}

// hopTracer is a ReplicatedStore's peer transport. Replica
// sub-requests carry no context, so a hop starts without a parent and
// is joined to its operation after the run (linkHops).
type hopTracer struct {
	next http.RoundTripper
	t    *tracer
}

func (h hopTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := h.t.start(spReplHop, 0)
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.FormatUint(uint64(sp.ID), 10))
	resp, err := h.next.RoundTrip(req)
	sp.end(err != nil || resp.StatusCode >= 500)
	return resp, err
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware times one handler and puts its span in the request
// context, where the MetaService and ChunkStore wrappers find it.
func (t *tracer) middleware(kind spanKind, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 32)
		k := kind
		if r.Header.Get(storage.ReplicaHeader) != "" {
			k = spReplHTTP
		}
		sp := t.start(k, uint32(parent))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, sp)))
		sp.end(sw.status >= 500)
	})
}

// tracedMeta wraps the MetaService a front-end commits to. It has the
// context-aware methods, so the front-end's trace context reaches it.
type tracedMeta struct {
	inner *storage.Metadata
	t     *tracer
}

func (m tracedMeta) Commit(shard int, url string, sums []storage.Sum) error {
	return m.CommitCtx(context.Background(), shard, url, sums)
}

func (m tracedMeta) CommitCtx(ctx context.Context, shard int, url string, sums []storage.Sum) error {
	sp := m.t.start(spMetaCommit, parentOf(ctx))
	err := m.inner.CommitCtx(ctx, shard, url, sums)
	sp.end(err != nil)
	return err
}

func (m tracedMeta) Lookup(shard int, sum storage.Sum) (storage.FileMeta, error) {
	return m.LookupCtx(context.Background(), shard, sum)
}

func (m tracedMeta) LookupCtx(ctx context.Context, shard int, sum storage.Sum) (storage.FileMeta, error) {
	sp := m.t.start(spMetaLookup, parentOf(ctx))
	fm, err := m.inner.LookupCtx(ctx, shard, sum)
	sp.end(err != nil)
	return fm, err
}

// innerStore is what every store the benchmark wraps (CachedStore,
// DiskStore) implements; the wrapper forwards all of it so the
// zero-copy and context-aware paths stay the ones the program takes.
type innerStore interface {
	storage.ChunkStore
	storage.CtxStore
	storage.ReaderStore
	storage.Ranger
}

// tracedStore times Put and Get calls into one store. Existence
// checks and enumeration are forwarded untimed: they are map lookups.
type tracedStore struct {
	inner    innerStore
	t        *tracer
	put, get spanKind
}

// tracedDeleter is a tracedStore over a store that can delete, so a
// type assertion on the wrapper answers as one on the store would.
type tracedDeleter struct {
	*tracedStore
	del storage.Deleter
}

func (d tracedDeleter) Delete(sum storage.Sum) error { return d.del.Delete(sum) }

func traceStore(t *tracer, inner innerStore, put, get spanKind) storage.ChunkStore {
	ts := &tracedStore{inner: inner, t: t, put: put, get: get}
	if del, ok := inner.(storage.Deleter); ok {
		return tracedDeleter{ts, del}
	}
	return ts
}

func sumKey(sum storage.Sum) uint64 { return binary.LittleEndian.Uint64(sum[:8]) }

func (s *tracedStore) begin(ctx context.Context, kind spanKind, sum storage.Sum) (context.Context, *liveSpan) {
	sp := s.t.start(kind, parentOf(ctx))
	sp.Key = sumKey(sum)
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

func (s *tracedStore) Put(sum storage.Sum, data []byte) error {
	return s.PutCtx(context.Background(), sum, data)
}

func (s *tracedStore) PutCtx(ctx context.Context, sum storage.Sum, data []byte) error {
	ctx, sp := s.begin(ctx, s.put, sum)
	err := s.inner.PutCtx(ctx, sum, data)
	sp.end(err != nil)
	return err
}

func (s *tracedStore) Get(sum storage.Sum) ([]byte, error) {
	return s.GetCtx(context.Background(), sum)
}

func (s *tracedStore) GetCtx(ctx context.Context, sum storage.Sum) ([]byte, error) {
	ctx, sp := s.begin(ctx, s.get, sum)
	data, err := s.inner.GetCtx(ctx, sum)
	sp.end(err != nil && !errors.Is(err, storage.ErrNotFound))
	return data, err
}

// GetReaderCtx returns the inner store's own reader. A disk-backed
// reader streams after this call returns, so that copy is charged to
// the handler that drives it, not to the store span.
func (s *tracedStore) GetReaderCtx(ctx context.Context, sum storage.Sum) (*storage.ChunkReader, error) {
	ctx, sp := s.begin(ctx, s.get, sum)
	rd, err := s.inner.GetReaderCtx(ctx, sum)
	sp.end(err != nil && !errors.Is(err, storage.ErrNotFound))
	return rd, err
}

func (s *tracedStore) Has(sum storage.Sum) bool { return s.inner.Has(sum) }

func (s *tracedStore) MultiHas(sums []storage.Sum) []bool {
	if mh, ok := s.inner.(storage.MultiHaser); ok {
		return mh.MultiHas(sums)
	}
	out := make([]bool, len(sums))
	for i, sum := range sums {
		out[i] = s.inner.Has(sum)
	}
	return out
}

func (s *tracedStore) Stats() storage.StoreStats { return s.inner.Stats() }

func (s *tracedStore) Range(f func(storage.Sum, int64) bool) { s.inner.Range(f) }

// traceSummary is what the traced run reports per layer.
type traceSummary struct {
	ops     int
	rootNs  int64            // sum of root-span durations
	selfNs  [numLayers]int64 // wall time charged to each layer
	calls   [numLayers]int   // spans per layer, unlinked ones included
	errors  [numLayers]int
	perSpan map[uint32]int64 // self time per span, for the dump
	opOf    map[uint32]uint32
}

// linkHops gives each parentless replica hop the parent it would have
// had if contexts crossed ReplicatedStore: the span that caused the
// coordinator's own write of the same chunk. A hop that carried no
// chunk write (an existence probe) stays unlinked.
func linkHops(spans []span, index map[uint32]int, children map[uint32][]int) {
	owner := make(map[uint64]uint32) // chunk -> the client-facing handler that wrote it
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Kind == spDiskPut && s.Key != 0 && spans[p].Kind == spFEHTTP {
			owner[s.Key] = s.Parent
		}
	}
	for i := range spans {
		hop := &spans[i]
		if hop.Kind != spReplHop || hop.Parent != 0 {
			continue
		}
		var key uint64
		var find func(id uint32)
		find = func(id uint32) {
			for _, c := range children[id] {
				if spans[c].Key != 0 {
					key = spans[c].Key
				}
				find(spans[c].ID)
			}
		}
		find(hop.ID)
		if p := owner[key]; key != 0 && p != 0 {
			hop.Parent = p
			children[p] = append(children[p], i)
		}
	}
}

// analyze charges the wall time of every file operation whose root
// span lies inside [from, to] to the layers that were running.
func analyze(spans []span, from, to int64) traceSummary {
	sum := traceSummary{perSpan: make(map[uint32]int64), opOf: make(map[uint32]uint32)}
	index := make(map[uint32]int, len(spans))
	children := make(map[uint32][]int)
	for i, s := range spans {
		index[s.ID] = i
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	linkHops(spans, index, children)
	for i := range spans {
		root := &spans[i]
		if !root.Kind.root() || root.Start < from || root.End > to {
			continue
		}
		sum.ops++
		sum.rootNs += root.End - root.Start
		charge(spans, children, i, &sum)
	}
	// Spans no operation claimed (replica existence probes) carry no
	// time but still count as calls into their layer.
	for _, s := range spans {
		if _, claimed := sum.opOf[s.ID]; claimed || s.Start < from || s.End > to {
			continue
		}
		l := spanKinds[s.Kind].layer
		sum.calls[l]++
		if s.Err {
			sum.errors[l]++
		}
	}
	return sum
}

// charge splits one operation's wall time among its spans: at every
// instant the time goes to the deepest spans running, shared equally
// when parallel branches run at once. For a span whose children do not
// overlap this is its duration minus the union of their intervals,
// and the shares of one operation always add up to its root span.
func charge(spans []span, children map[uint32][]int, root int, sum *traceSummary) {
	type member struct {
		idx        int
		parent     int // position in members, -1 for the root
		start, end int64
		kids       int // children running now
		active     bool
	}
	type event struct {
		at     int64
		member int
		open   bool
	}
	var members []member
	var events []event
	var add func(idx, parent int, lo, hi int64)
	add = func(idx, parent int, lo, hi int64) {
		s := spans[idx]
		sum.opOf[s.ID] = spans[root].ID
		l := spanKinds[s.Kind].layer
		sum.calls[l]++
		if s.Err {
			sum.errors[l]++
		}
		// A child is clipped to its parent: a straggler replica write
		// that outlives the request is background work, not latency.
		start, end := max(s.Start, lo), min(s.End, hi)
		if end <= start {
			return
		}
		me := len(members)
		members = append(members, member{idx: idx, parent: parent, start: start, end: end})
		events = append(events, event{start, me, true}, event{end, me, false})
		for _, c := range children[s.ID] {
			add(c, me, start, end)
		}
	}
	add(root, -1, spans[root].Start, spans[root].End)
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].open && events[j].open // close before open at one instant
	})
	var last int64
	for _, ev := range events {
		if dt := ev.at - last; dt > 0 {
			deepest := 0
			for _, m := range members {
				if m.active && m.kids == 0 {
					deepest++
				}
			}
			for _, m := range members {
				if m.active && m.kids == 0 {
					share := dt / int64(deepest)
					s := spans[m.idx]
					sum.perSpan[s.ID] += share
					sum.selfNs[spanKinds[s.Kind].layer] += share
				}
			}
		}
		last = ev.at
		m := &members[ev.member]
		m.active = ev.open
		if m.parent >= 0 {
			if ev.open {
				members[m.parent].kids++
			} else {
				members[m.parent].kids--
			}
		}
	}
}

// layerMetrics turns the summary into the per-layer metric set.
func (s traceSummary) layerMetrics() map[string]float64 {
	out := make(map[string]float64, 4*numLayers)
	ops := float64(max(s.ops, 1))
	for l := layer(0); l < numLayers; l++ {
		name := layerNames[l]
		out[name+"_calls_per_op"] = float64(s.calls[l]) / ops
		out[name+"_self_ms_per_op"] = float64(s.selfNs[l]) / 1e6 / ops
		out[name+"_share"] = float64(s.selfNs[l]) / float64(max(s.rootNs, 1))
		out[name+"_errors"] = float64(s.errors[l])
	}
	return out
}

// writeSpans dumps every span with the operation it was charged to.
func writeSpans(path string, spans []span, sum traceSummary) error {
	type row struct {
		ID      uint32 `json:"id"`
		Parent  uint32 `json:"parent"`
		Op      uint32 `json:"op"`
		Name    string `json:"name"`
		Layer   string `json:"layer"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		SelfNs  int64  `json:"self_ns"`
		Err     bool   `json:"err,omitempty"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		k := spanKinds[s.Kind]
		err = enc.Encode(row{s.ID, s.Parent, sum.opOf[s.ID], k.name, layerNames[k.layer], s.Start, s.End, sum.perSpan[s.ID], s.Err})
		if err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
