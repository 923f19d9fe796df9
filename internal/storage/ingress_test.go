package storage

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcloud/internal/faults"
	"mcloud/internal/metrics"
	"mcloud/internal/trace"
)

// ctxOnlyStore is the shape of a third-party decorator (and of the
// benchmark's traced stack): it forwards the ChunkStore methods and
// none of the optional capabilities. The proof and the sync group must
// survive it. hashedBelow accumulates the MD5 passes made underneath
// its PutCtx (meaningful when puts do not overlap).
type ctxOnlyStore struct {
	ChunkStore
	hashedBelow atomic.Int64
}

func (s *ctxOnlyStore) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	before := hashPasses.Load()
	err := s.ChunkStore.PutCtx(ctx, sum, data)
	s.hashedBelow.Add(hashPasses.Load() - before)
	return err
}

// ingressService serves one front-end built from cfg plus a metadata
// server and returns a client of it.
func ingressService(t *testing.T, cfg FrontEndConfig, parallel int) *Client {
	t.Helper()
	meta := NewMetadata()
	cfg.Meta = meta
	feSrv := httptest.NewServer(NewFrontEnd(cfg).Handler())
	metaSrv := httptest.NewServer(meta.Handler())
	t.Cleanup(feSrv.Close)
	t.Cleanup(metaSrv.Close)
	meta.AddFrontEnd(feSrv.URL)
	return NewClient(ClientConfig{MetaURL: metaSrv.URL, UserID: 1, DeviceID: 1, Device: trace.Android, Parallel: parallel})
}

// TestIngressHashesOncePerNode pins the pass count on one node: a 4 MB
// store costs the client two MD5 passes (file, chunks) and the node
// exactly one — at its ingress, none in the stores. A ring hashes once
// per cluster instead (TestClusterHashesOncePerCluster).
func TestIngressHashesOncePerNode(t *testing.T) {
	const size = 4 << 20
	clientPasses := int64(2 * size)

	for _, tc := range []struct {
		name       string
		parallel   int
		disableBin bool
		batches    int64 // bin/put requests; 0 for JSON chunk PUTs
	}{
		{"cached-disk/json", 1, true, 0},
		{"cached-disk/parallel=1", 1, false, 1},
		{"cached-disk/parallel=2", 2, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, _ := newDiskStore(t, DiskStoreOptions{})
			wrap := &ctxOnlyStore{ChunkStore: ds}
			client := ingressService(t, FrontEndConfig{Store: NewCachedStore(wrap, 64<<20), DisableBin: tc.disableBin}, tc.parallel)
			data := chunkedData(t, uint64(len(tc.name)), size)
			fsyncs := ds.DiskStats().Fsyncs
			writeOuts := writeOutCounter(t, ds)

			before := hashPasses.Load()
			if _, err := client.StoreFile("a.bin", data); err != nil {
				t.Fatal(err)
			}
			if got := hashPasses.Load() - before - clientPasses; got != size {
				t.Fatalf("server hashed %d bytes for a %d-byte store, want exactly one pass", got, size)
			}
			// The pass counter is global: only a serial client keeps
			// another request's ingress out of the count.
			if n := wrap.hashedBelow.Load(); tc.parallel == 1 && n != 0 {
				t.Fatalf("DiskStore hashed %d bytes of already-verified puts", n)
			}
			n := ds.DiskStats().Fsyncs - fsyncs
			if tc.batches > 0 && n > tc.batches {
				t.Fatalf("%d fsyncs for %d batches; the deferred-sync group did not survive the wrapper", n, tc.batches)
			}
			if tc.batches == 0 && n != size/ChunkSize {
				t.Fatalf("%d fsyncs, want one per JSON chunk PUT", n)
			}
			// A batched frame's write-out starts before the batch's fsync,
			// except the last frame's; a JSON PUT syncs at once and starts
			// none.
			if tc.batches > 0 {
				writeOuts(size/ChunkSize-tc.batches, "a batched store")
			} else {
				writeOuts(0, "JSON chunk PUTs")
			}
			for _, sum := range SplitSums(data) {
				if !ds.Has(sum) {
					t.Fatalf("chunk %s not durable after the ack", sum)
				}
			}
		})
	}
}

// TestPutWithoutProofIsVerified is the fail-safe rule: proof is only
// trusted for exactly the digest and length it vouches for; every
// other put is hashed as it always was.
func TestPutWithoutProofIsVerified(t *testing.T) {
	disk, _ := newDiskStore(t, DiskStoreOptions{})
	ring, _ := newTestCluster(t, 1, 1, 1)
	stores := map[string]ChunkStore{
		"DiskStore":       disk,
		"MemStore":        NewMemStore(),
		"CachedStore":     NewCachedStore(NewMemStore(), 1<<20),
		"ReplicatedStore": ring[0].rs,
	}
	good := []byte("the bytes the digest names")
	evil := []byte("the bytes the digest namez") // same length
	sum := SumBytes(good)
	for name, s := range stores {
		if err := s.PutCtx(bg, sum, evil); !errors.Is(err, ErrBadDigest) {
			t.Errorf("%s.PutCtx(wrong digest) = %v, want ErrBadDigest", name, err)
		}
		// Proof for the right digest and length, but other bytes were
		// verified: binding is to (digest, length), so this is the one
		// case proof can be abused — and only from inside the package.
		// Proof for a different digest or length must not help.
		for what, fr := range map[string]*frame{
			"other digest": sealFrame(SumBytes(evil), evil),
			"other length": sealFrame(sum, good[:len(good)-1]),
		} {
			if err := s.PutCtx(withVerified(bg, fr), sum, evil); !errors.Is(err, ErrBadDigest) {
				t.Errorf("%s.PutCtx(proof for %s) = %v, want ErrBadDigest", name, what, err)
			}
		}
		if s.Has(sum) {
			t.Errorf("%s holds a chunk it should have rejected", name)
		}
		before := hashPasses.Load()
		if err := s.PutCtx(withVerified(bg, sealFrame(sum, good)), sum, good); err != nil {
			t.Errorf("%s.PutCtx(verified) = %v", name, err)
		}
		if n := hashPasses.Load() - before; n != 0 {
			t.Errorf("%s hashed %d bytes of a verified put", name, n)
		}
		if got, err := s.GetCtx(bg, sum); err != nil || !bytes.Equal(got, good) {
			t.Errorf("%s read-back: %v", name, err)
		}
	}
}

// TestSyncGroup pins the deferred-sync contract: puts under a group
// are appended but neither synced nor reported until the group is
// waited on; one fsync then covers them all; and a put that misses the
// group — no group in its context, or one already closed — syncs
// inline. Each deferred record's device write starts as it is put, so
// the group's fsync finds it written or in flight. The request's last
// declared put, whose fsync follows at once, a put that syncs inline,
// and a dedup hit that wrote nothing start none.
func TestSyncGroup(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{})
	// Every chunk spans a whole page, so every deferred put has one to
	// write out.
	chunk := func(i int) []byte { return append(testChunk(21, i), make([]byte, pageSize)...) }
	put := func(ctx context.Context, i int) Sum {
		data := chunk(i)
		sum := SumBytes(data)
		if err := ds.PutCtx(ctx, sum, data); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	writeOuts := writeOutCounter(t, ds)
	base := ds.DiskStats().Fsyncs

	ctx, group := withSyncGroup(context.Background(), 6)
	var sums []Sum
	for i := 0; i < 5; i++ {
		sums = append(sums, put(ctx, i))
	}
	if n := ds.DiskStats().Fsyncs - base; n != 0 {
		t.Fatalf("%d fsyncs before the group was waited on", n)
	}
	writeOuts(5, "five deferred puts")
	for _, sum := range sums {
		if ds.Has(sum) {
			t.Fatal("Has reports a record no fsync covers yet")
		}
		if _, err := ds.GetCtx(bg, sum); err != nil {
			t.Fatalf("unsynced record unreadable: %v", err)
		}
	}
	// A second writer of the same content must not be acknowledged
	// ahead of the first writer's fsync: its dedup hit syncs.
	if err := ds.PutCtx(bg, sums[0], chunk(0)); err != nil {
		t.Fatal(err)
	}
	if n := ds.DiskStats().Fsyncs - base; n != 1 {
		t.Fatalf("dedup hit on an unsynced record issued %d fsyncs, want 1", n)
	}
	writeOuts(5, "an inline dedup hit")
	sums = append(sums, put(ctx, 5))
	if err := ds.PutCtx(ctx, sums[1], chunk(1)); err != nil {
		t.Fatal(err)
	}
	writeOuts(5, "the last declared put and a deferred dedup hit")
	if err := group.wait(ctx); err != nil {
		t.Fatal(err)
	}
	if n := ds.DiskStats().Fsyncs - base; n != 2 {
		t.Fatalf("%d fsyncs after the wait, want 2 (dedup hit, group)", n)
	}
	for _, sum := range sums {
		if !ds.Has(sum) {
			t.Fatal("record missing after the group's fsync")
		}
	}

	// The group is closed now: a straggler syncs for itself.
	late := put(ctx, 6)
	if n := ds.DiskStats().Fsyncs - base; n != 3 || !ds.Has(late) {
		t.Fatalf("late put: %d fsyncs, Has=%v; want an inline sync", n, ds.Has(late))
	}
	// And so does a put made outside any request.
	plain := testChunk(21, 7)
	if err := ds.PutCtx(bg, SumBytes(plain), plain); err != nil {
		t.Fatal(err)
	}
	if n := ds.DiskStats().Fsyncs - base; n != 4 {
		t.Fatalf("put without a group: %d fsyncs, want 4", n)
	}
	writeOuts(5, "two inline puts")
}

// binBatch renders a /v1/bin/put body from ready-made frames.
func binBatch(frames ...[]byte) []byte {
	body := appendBinCount(nil, len(frames))
	for _, f := range frames {
		body = append(body, f...)
	}
	return body
}

// doChunkReq sends one request and returns the decoded error (nil on
// 200).
func doChunkReq(t *testing.T, method, url string, body []byte, replica bool) error {
	t.Helper()
	hdr := http.Header{}
	if replica {
		hdr.Set(ReplicaHeader, "1")
	}
	return doChunkReqHeader(t, method, url, body, hdr)
}

// doChunkReqHeader is doChunkReq with the request's headers given.
func doChunkReqHeader(t *testing.T, method, url string, body []byte, hdr http.Header) error {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header = hdr.Clone()
	req.Header.Set(APIHeader, APIV1)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return decodeError(resp)
}

// corruptFrame renders a frame for data damaged in the given way and
// reports the digest its header claims.
func corruptFrame(how string, data []byte) (frame []byte, claimed Sum) {
	sum := SumBytes(data)
	switch how {
	case "flipped-bit": // damaged after framing: the CRC catches it
		frame = appendBinFrame(nil, sum, data)
		frame[recHeaderSize+len(data)/2] ^= 0x10
		return frame, sum
	case "wrong-digest": // consistent CRC over a header naming other content
		claimed = SumBytes([]byte("some other content"))
		return appendBinFrame(nil, claimed, data), claimed
	case "wrong-crc":
		frame = appendBinFrame(nil, sum, data)
		frame[20] ^= 0x01
		return frame, sum
	}
	panic(how)
}

// TestIngressCorruptionMatrix sends every kind of damaged chunk at
// every ingress of a 3-node cluster. Each is refused with the typed
// bad_digest error, and afterwards no node holds either the digest the
// sender claimed or the digest of the bytes it actually sent — the
// fan-out never starts on an unverified frame, so there is nothing to
// poison, replicas included.
func TestIngressCorruptionMatrix(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 3, 2)
	seed := uint64(0)
	check := func(t *testing.T, err error, sums ...Sum) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeBadDigest || ae.Status != http.StatusBadRequest || ae.Retryable {
			t.Fatalf("got %v, want a 400 bad_digest envelope", err)
		}
		time.Sleep(20 * time.Millisecond) // anything wrongly fanned out would land by now
		for _, nd := range nodes {
			for _, sum := range sums {
				if nd.local.Has(sum) {
					t.Fatalf("%s holds %s after the rejection", nd.url, sum)
				}
			}
		}
	}
	for _, replica := range []bool{false, true} {
		for _, how := range []string{"flipped-bit", "wrong-digest", "wrong-crc"} {
			t.Run(fmt.Sprintf("bin-put/replica=%v/%s", replica, how), func(t *testing.T) {
				seed++
				_, good := replChunk(1000+seed, 3000)
				_, data := replChunk(2000+seed, 5000)
				bad, claimed := corruptFrame(how, data)
				body := binBatch(appendBinFrame(nil, SumBytes(good), good), bad)
				err := doChunkReq(t, http.MethodPost, nodes[0].url+"/v1/bin/put", body, replica)
				check(t, err, claimed, SumBytes(bad[recHeaderSize:]))
			})
		}
		for _, how := range []string{"flipped-bit", "wrong-digest"} {
			t.Run(fmt.Sprintf("json-put/replica=%v/%s", replica, how), func(t *testing.T) {
				seed++
				claimed, data := replChunk(3000+seed, 5000)
				if how == "flipped-bit" {
					data[100] ^= 0x10
				} else {
					claimed = SumBytes([]byte("some other content"))
				}
				err := doChunkReq(t, http.MethodPut, nodes[0].url+"/v1/chunk/"+claimed.String(), data, replica)
				check(t, err, claimed, SumBytes(data))
			})
		}
	}

	// Rebalance stream: the one holder of an under-replicated chunk
	// serves it damaged. The rebalancer refuses it at its own ingress,
	// reports the failure, and leaves the other owners untouched. (A
	// fresh cluster: the census must see this chunk only.)
	nodes, _ = newTestCluster(t, 3, 3, 2)
	for _, bin := range []bool{true, false} {
		for _, how := range []string{"flipped-bit", "wrong-digest", "wrong-crc"} {
			if !bin && how == "wrong-crc" {
				continue // the JSON dialect carries no CRC
			}
			t.Run(fmt.Sprintf("rebalance/bin=%v/%s", bin, how), func(t *testing.T) {
				seed++
				sum, data := replChunk(4000+seed, 5000)
				holder := nodes[1]
				if err := holder.local.PutCtx(bg, sum, data); err != nil {
					t.Fatal(err)
				}
				holder.handler.set(damageReads(holder.fe, bin, how))
				defer holder.up()
				var logs []string
				rb := &Rebalancer{Seed: nodes[0].url, Logf: func(f string, a ...interface{}) {
					logs = append(logs, fmt.Sprintf(f, a...))
				}}
				rep, err := rb.Run()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Errors == 0 || rep.Replicated != 0 {
					t.Fatalf("report %+v, want the damaged fetch counted as an error", rep)
				}
				if !strings.Contains(strings.Join(logs, "\n"), ErrBadDigest.Error()) {
					t.Fatalf("rebalancer logs lack the bad-digest rejection:\n%s", strings.Join(logs, "\n"))
				}
				for _, nd := range nodes {
					if nd != holder && nd.local.Has(sum) {
						t.Fatalf("%s received the damaged chunk", nd.url)
					}
				}
				holder.local.Delete(sum) // keep later passes' census clean
			})
		}
	}
}

// TestBinPutBadFrameStoresNothing: a bin/put batch is verified whole
// before any frame is put. A 16-frame batch of full-size chunks — the
// one the lane pass hashes side by side — with a forged frame (valid
// CRC, wrong digest) first, in the middle or last, or cut off
// mid-frame, is refused with nothing stored on any node of the ring
// and no replica write sent; the intact batch lands everywhere.
func TestBinPutBadFrameStoresNothing(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 3, 2)
	// A replica write reaches an owner as a bin/put stream, or as JSON
	// chunk PUTs before the owner's mcsbin/1 stamp has been seen.
	var replicaWrites atomic.Int64
	for _, nd := range nodes {
		fe := nd.fe
		nd.fe = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isReplicaRequest(r) && (r.URL.Path == "/v1/bin/put" || r.Method == http.MethodPut) {
				replicaWrites.Add(1)
			}
			fe.ServeHTTP(w, r)
		})
		nd.up()
	}
	seed := uint64(0)
	// batch returns 16 full-size frames, the one at bad forged, and
	// every digest that must not land if the batch is refused.
	batch := func(bad int) (body []byte, sums []Sum) {
		var frames [][]byte
		for i := 0; i < binMaxBatch; i++ {
			seed++
			data := chunkedData(t, 7000+seed, ChunkSize)
			sum := SumBytes(data)
			sums = append(sums, sum)
			if i == bad {
				frame, claimed := corruptFrame("wrong-digest", data)
				frames = append(frames, frame)
				sums = append(sums, claimed)
				continue
			}
			frames = append(frames, appendBinFrame(nil, sum, data))
		}
		return binBatch(frames...), sums
	}
	refused := func(t *testing.T, body []byte, sums []Sum, code string) {
		t.Helper()
		err := doChunkReq(t, http.MethodPost, nodes[0].url+"/v1/bin/put", body, false)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != code || ae.Status != http.StatusBadRequest {
			t.Fatalf("got %v, want a 400 %s envelope", err, code)
		}
		time.Sleep(20 * time.Millisecond) // anything wrongly fanned out would land by now
		for _, nd := range nodes {
			for _, sum := range sums {
				if nd.local.Has(sum) {
					t.Fatalf("%s holds %s after the rejection", nd.url, sum)
				}
			}
		}
		if n := replicaWrites.Load(); n != 0 {
			t.Fatalf("a refused batch sent %d replica writes", n)
		}
	}
	for _, bad := range []int{0, 7, 15} {
		t.Run(fmt.Sprintf("forged-frame-%d", bad), func(t *testing.T) {
			body, sums := batch(bad)
			refused(t, body, sums, CodeBadDigest)
		})
	}
	t.Run("truncated", func(t *testing.T) {
		body, sums := batch(-1)
		refused(t, body[:len(body)-ChunkSize/2], sums, CodeBadRequest)
	})
	t.Run("intact", func(t *testing.T) {
		body, sums := batch(-1)
		if err := doChunkReq(t, http.MethodPost, nodes[0].url+"/v1/bin/put", body, false); err != nil {
			t.Fatal(err)
		}
		awaitReplicas(t, nodes, sums)
		if replicaWrites.Load() == 0 {
			t.Fatal("the intact batch reached its owners without a replica write")
		}
	})
}

// damageReads wraps a node's handler so every chunk it serves arrives
// damaged: the binary dialect's frame in the given way, the JSON
// dialect's body with a flipped bit. With bin false the node also
// stops advertising mcsbin/1, so peers read it over JSON.
func damageReads(next http.Handler, bin bool, how string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		isBinGet := r.URL.Path == "/v1/bin/get"
		isChunkGet := r.Method == http.MethodGet && isChunkReq(r)
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		switch {
		case rec.Code != http.StatusOK:
		case isBinGet:
			body, _ = corruptFrame(how, body[recHeaderSize:])
		case isChunkGet:
			body[len(body)/2] ^= 0x10
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		if !bin {
			w.Header().Del(BinHeader)
		}
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// failingStore accepts nothing: every put fails the way a full or
// closing disk does.
type failingStore struct {
	ChunkStore
	err error
}

func (s failingStore) PutCtx(context.Context, Sum, []byte) error { return s.err }

// TestStoreFailureIsNotTheClientsFault: only the handler's own digest
// and size checks are 4xx. Whatever the store returns for verified
// bytes is a retryable 5xx, on all three chunk-PUT ingress handlers,
// so clients retry or fail over and the fan-out repairs the sick owner
// instead of treating it as a protocol error.
func TestStoreFailureIsNotTheClientsFault(t *testing.T) {
	sum, data := replChunk(77, 4000)
	frame := appendBinFrame(nil, sum, data)
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{errors.New("write seg-00000003.mseg: no space left on device"), http.StatusInternalServerError, CodeInternal},
		{fmt.Errorf("%w: 1/3 owner acks", ErrUnavailable), http.StatusServiceUnavailable, CodeUnavailable},
	} {
		fe := NewFrontEnd(FrontEndConfig{Store: failingStore{NewMemStore(), tc.err}, Meta: NewMetadata()})
		srv := httptest.NewServer(fe.Handler())
		for name, send := range map[string]func(replica bool) error{
			"PUT /v1/chunk": func(replica bool) error {
				return doChunkReq(t, http.MethodPut, srv.URL+"/v1/chunk/"+sum.String(), data, replica)
			},
			"POST /v1/bin/put": func(replica bool) error {
				return doChunkReq(t, http.MethodPost, srv.URL+"/v1/bin/put", binBatch(frame), replica)
			},
		} {
			for _, replica := range []bool{false, true} {
				err := send(replica)
				var ae *APIError
				if !errors.As(err, &ae) || ae.Status != tc.status || ae.Code != tc.code || !ae.Retryable || !retryable(err) {
					t.Errorf("%s (replica=%v) over a store failing with %q: got %v, want retryable %d %s",
						name, replica, tc.err, err, tc.status, tc.code)
				}
			}
		}
		srv.Close()
	}
}

// TestFanoutQueuesOwnerWithFailingStore: an owner whose store fails
// its replica write answers 500, the write still reaches quorum on the
// other two, and the sick owner lands in the repair queue.
func TestFanoutQueuesOwnerWithFailingStore(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 3, 2)
	sick := nodes[2]
	sick.handler.set(NewFrontEnd(FrontEndConfig{
		Store: sick.rs,
		Local: failingStore{sick.local, errors.New("no space left on device")},
		Meta:  NewMetadata(),
	}).Handler())

	sum, data := replChunk(78, 4000)
	if err := nodes[0].rs.PutCtx(bg, sum, data); err != nil {
		t.Fatalf("put with one sick owner: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].rs.Underreplicated() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("repair queue depth %d, want the sick owner queued", nodes[0].rs.Underreplicated())
		}
		time.Sleep(time.Millisecond)
	}
	if sick.local.Has(sum) || !nodes[0].local.Has(sum) || !nodes[1].local.Has(sum) {
		t.Fatal("chunk placement does not match the acks")
	}
	sick.up()
	time.Sleep(60 * time.Millisecond) // breaker cooldown
	if n := nodes[0].rs.RepairNow(); n != 1 || !sick.local.Has(sum) {
		t.Fatalf("RepairNow = %d, sick owner Has = %v", n, sick.local.Has(sum))
	}
}

// reqLog records the client requests a server saw, one "METHOD path"
// entry each (chunk paths without the digest), with " +op" appended to
// a bin/get that carried the file retrieval operation. Replica hops
// are not client requests, and a client's one-time ring discovery
// (GET /v1/cluster/info) is no part of any retrieve: both are left out.
type reqLog struct {
	mu       sync.Mutex
	seen     []string
	inflight atomic.Int64
}

func (l *reqLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.inflight.Add(1)
		defer l.inflight.Add(-1)
		if r.Header.Get(ReplicaHeader) == "" && r.URL.Path != "/v1/cluster/info" {
			p := r.URL.Path
			if strings.HasPrefix(p, "/v1/chunk/") {
				p = "/v1/chunk/"
			}
			e := r.Method + " " + p
			if r.Header.Get(FileRetrieveHeader) != "" {
				e += " +op"
			}
			l.mu.Lock()
			l.seen = append(l.seen, e)
			l.mu.Unlock()
		}
		next.ServeHTTP(w, r)
	})
}

// settle waits until no request is being served. A handler logs a
// batch's chunk records after writing their frames, so they can land
// after the client has returned.
func (l *reqLog) settle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for l.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still being served", l.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// take returns what was seen since the last take.
func (l *reqLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.seen
	l.seen = nil
	return out
}

// TestConcurrentHashingIsDeterministic (run under -race): the chunk
// digests are filled on a goroutine beside the file MD5, yet the
// committed ChunkMD5s order and the StoreResult equal the serial
// client's, and
// every client's request sequence is exactly the protocol order: the
// handshake, then the /v1/bin/put batches — a single one for the
// serial client.
func TestConcurrentHashingIsDeterministic(t *testing.T) {
	data := chunkedData(t, 31, 5*ChunkSize+12345)
	want := SplitSums(data)

	run := func(parallel int) (StoreResult, []Sum, []string) {
		store := NewMemStore()
		meta := NewMetadata()
		log := &reqLog{}
		feSrv := httptest.NewServer(log.wrap(NewFrontEnd(FrontEndConfig{Store: store, Meta: meta}).Handler()))
		metaSrv := httptest.NewServer(log.wrap(meta.Handler()))
		defer feSrv.Close()
		defer metaSrv.Close()
		meta.AddFrontEnd(feSrv.URL)
		client := NewClient(ClientConfig{MetaURL: metaSrv.URL, UserID: 9, DeviceID: 9, Device: trace.Android, Parallel: parallel})
		res, err := client.StoreFile("d.bin", data)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := meta.LookupCtx(bg, 0, SumBytes(data))
		if err != nil {
			t.Fatal(err)
		}
		res.URL = "" // minted per service instance
		return res, fm.ChunkMD5s, log.seen
	}

	serialRes, serialSums, serialReqs := run(1)
	if !reflect.DeepEqual(serialSums, want) {
		t.Fatalf("serial client committed %v, want %v", serialSums, want)
	}
	handshake := []string{"GET /v1/meta/shards", "POST /v1/meta/store-check", "POST /v1/op/store"}
	wantReqs := func(parallel int) []string {
		out := append([]string(nil), handshake...)
		per := batchSize(len(want), parallel)
		for b := 0; b < (len(want)+per-1)/per; b++ {
			out = append(out, "POST /v1/bin/put")
		}
		return out
	}
	if !reflect.DeepEqual(serialReqs, wantReqs(1)) {
		t.Fatalf("serial client request sequence:\n got %v\nwant %v", serialReqs, wantReqs(1))
	}
	for _, parallel := range []int{2, 4, 8} {
		res, sums, reqs := run(parallel)
		if !reflect.DeepEqual(res, serialRes) || !reflect.DeepEqual(sums, want) {
			t.Fatalf("parallel=%d: result %+v chunks %v differ from the serial client's %+v %v",
				parallel, res, sums, serialRes, want)
		}
		if !reflect.DeepEqual(reqs, wantReqs(parallel)) {
			t.Fatalf("parallel=%d: request sequence %v, want %v", parallel, reqs, wantReqs(parallel))
		}
	}
}

// TestDedupHitStopsChunkHashers: a Duplicate verdict abandons the
// chunk hashing at the next lane group, and StoreFile does not return
// while the chunk pass still reads the caller's buffer (the write
// below is a data race otherwise).
func TestDedupHitStopsChunkHashers(t *testing.T) {
	// 40 chunks are three lane groups and a short last chunk; a pass
	// started after the cancel hashes none of them, on its own
	// goroutine or inline.
	for _, started := range []bool{true, false} {
		up := newUpload(chunkedData(t, 32, 40*ChunkSize-1))
		before := hashPasses.Load()
		up.cancel()
		if started {
			up.start()
		}
		up.hashAll()
		if n := hashPasses.Load() - before; n != 0 {
			t.Fatalf("started=%v: hashed %d bytes after the cancel", started, n)
		}
	}

	client := ingressService(t, FrontEndConfig{Store: NewMemStore()}, 4)
	data := chunkedData(t, 33, 6*ChunkSize)
	if _, err := client.StoreFile("first.bin", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := client.StoreFile(fmt.Sprintf("again-%d.bin", i), data)
		if err != nil || !res.Deduplicated {
			t.Fatalf("re-store: %+v, %v", res, err)
		}
		data[0] ^= 0xFF // the buffer is the caller's again
		data[0] ^= 0xFF
	}
}

// TestVerbatimSegmentFormat pins the on-disk format: the segment bytes
// the verbatim append path writes — carried header, caller's payload,
// via either dialect's ingress or a plain Put — are byte-identical to
// the reference encoder's frames for the same chunks in the same
// order.
func TestVerbatimSegmentFormat(t *testing.T) {
	ds, dir := newDiskStore(t, DiskStoreOptions{})
	srv := httptest.NewServer(NewFrontEnd(FrontEndConfig{Store: NewCachedStore(ds, 1<<20), Meta: NewMetadata()}).Handler())
	defer srv.Close()

	var want []byte
	chunk := func(i int) (Sum, []byte) {
		data := testChunk(41, i)
		want = appendBinFrame(want, SumBytes(data), data)
		return SumBytes(data), data
	}
	var frames [][]byte
	for i := 0; i < 4; i++ {
		sum, data := chunk(i)
		frames = append(frames, appendBinFrame(nil, sum, data))
	}
	if err := doChunkReq(t, http.MethodPost, srv.URL+"/v1/bin/put", binBatch(frames...), false); err != nil {
		t.Fatal(err)
	}
	sum, data := chunk(4)
	if err := doChunkReq(t, http.MethodPut, srv.URL+"/v1/chunk/"+sum.String(), data, false); err != nil {
		t.Fatal(err)
	}
	sum, data = chunk(5)
	if err := ds.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	var tomb [recHeaderSize]byte
	encodeHeader(tomb[:], sum, tombstoneLen, nil)
	want = append(want, tomb[:]...)
	if err := ds.Delete(sum); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment is %d bytes, reference encoding %d; first difference at %d",
			len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestBinPutSIGKILLRecovery extends the crash test to batched uploads
// with one fsync per batch: a child process serves a front-end over a
// DiskStore and uploads bin/put batches to it, printing an ack only
// once a batch's response arrives; the parent SIGKILLs it mid-stream,
// reopens the directory, and every chunk of every acknowledged batch
// must come back byte-identical (a torn tail from the batch in flight
// is tolerated). The child serves either the bare DiskStore or the
// stack mcsserver -data -cache builds, a CachedStore over it: the
// cache is the only RAM above the durable store, so it must neither
// hold an acked put back from the disk nor hide the batch's sync group.
func TestBinPutSIGKILLRecovery(t *testing.T) {
	const seed, perBatch = 0xB17C, 4
	if dir := os.Getenv("MCS_BINPUT_CRASH_DIR"); dir != "" {
		binPutCrashChild(dir, os.Getenv("MCS_BINPUT_CRASH_STACK"), seed, perBatch)
		return
	}
	if testing.Short() {
		t.Skip("subprocess test")
	}
	for _, stack := range []string{"disk", "cached"} {
		t.Run(stack, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestBinPutSIGKILLRecovery$")
			cmd.Env = append(os.Environ(), "MCS_BINPUT_CRASH_DIR="+dir, "MCS_BINPUT_CRASH_STACK="+stack)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			acked := -1
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				var b int
				if _, err := fmt.Sscanf(sc.Text(), "acked batch %d", &b); err == nil {
					acked = b
					if b >= 25 {
						break // enough durable state; kill mid-stream
					}
				}
			}
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			cmd.Wait()
			if acked < 25 {
				// The child stops early only on a failed batch or a
				// batch that took more than its one fsync.
				t.Fatalf("child stopped after %d acknowledged batches: %s", acked+1, stderr.String())
			}

			ds, err := OpenDiskStore(dir, DiskStoreOptions{SegmentSize: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			lost, corrupted := 0, 0
			for i := 0; i < (acked+1)*perBatch; i++ {
				data := testChunk(seed, i)
				got, err := ds.GetCtx(bg, SumBytes(data))
				if err != nil {
					lost++
				} else if !bytes.Equal(got, data) {
					corrupted++
				}
			}
			if lost != 0 || corrupted != 0 {
				t.Fatalf("of %d chunks in %d acknowledged batches: %d lost, %d corrupted", (acked+1)*perBatch, acked+1, lost, corrupted)
			}
			st := ds.DiskStats()
			t.Logf("SIGKILL recovery: %d acknowledged batches of %d, 0 lost, 0 corrupted (%d torn bytes truncated)",
				acked+1, perBatch, st.Truncated)
		})
	}
}

// binPutCrashChild is the SIGKILL victim: it uploads deterministic
// batches to its own front-end forever, acknowledging each only once
// the server has, until the parent kills it. stack "cached" serves the
// DiskStore through a CachedStore.
func binPutCrashChild(dir, stack string, seed int64, perBatch int) {
	ds, err := OpenDiskStore(dir, DiskStoreOptions{SegmentSize: 64 << 10})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var store ChunkStore = ds
	if stack == "cached" {
		store = NewCachedStore(ds, 64<<20)
	}
	srv := httptest.NewServer(NewFrontEnd(FrontEndConfig{Store: store, Meta: NewMetadata()}).Handler())
	for b := 0; ; b++ {
		var frames [][]byte
		for i := b * perBatch; i < (b+1)*perBatch; i++ {
			data := testChunk(seed, i)
			frames = append(frames, appendBinFrame(nil, SumBytes(data), data))
		}
		resp, err := http.Post(srv.URL+"/v1/bin/put", binContentType, bytes.NewReader(binBatch(frames...)))
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintln(os.Stderr, "batch failed:", err, resp)
			os.Exit(1)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if st := ds.DiskStats(); st.Fsyncs > int64(b+1)+int64(st.Segments) {
			// One fsync per batch plus one per sealed segment: anything
			// more means the batch did not share its fsync.
			fmt.Fprintf(os.Stderr, "%d fsyncs after %d batches\n", ds.DiskStats().Fsyncs, b+1)
			os.Exit(1)
		}
		fmt.Printf("acked batch %d\n", b)
	}
}

// TestCarriedCRCDetectsCorruptionBelowIngress: the stored checksum is
// the one the ingress verified, not one recomputed over whatever
// reached the disk layer — so bytes damaged between the two fail the
// record's read-back check instead of being blessed.
func TestCarriedCRCDetectsCorruptionBelowIngress(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{})
	sum, data := replChunk(55, 4000)
	fr := sealFrame(sum, append([]byte(nil), data...))
	fr.payload[1234] ^= 0x04 // damaged after the ingress checked it
	if err := ds.PutCtx(withVerified(context.Background(), fr), sum, fr.payload); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.GetCtx(bg, sum); err == nil || !strings.Contains(err.Error(), "corruption") {
		t.Fatalf("Get of a record damaged below the ingress = %v, want the CRC to catch it", err)
	}
}

// retrieveRig is one front-end over a MemStore with its metadata
// server and a client of it. It records the digests each bin/get and
// JSON chunk GET asked for, and damage, when set, rewrites the first
// chunk response it serves.
type retrieveRig struct {
	client *Client
	store  *MemStore
	meta   *Metadata

	mu      sync.Mutex
	asked   [][]Sum  // per bin/get request, in arrival order
	jsonGot []string // per JSON chunk GET, in arrival order
	damage  func(bin bool, body []byte)
	damaged atomic.Bool
}

func newRetrieveRig(t *testing.T, parallel int, disableBin bool) *retrieveRig {
	t.Helper()
	rig := &retrieveRig{store: NewMemStore(), meta: NewMetadata()}
	next := NewFrontEnd(FrontEndConfig{Store: rig.store, Meta: rig.meta, DisableBin: disableBin}).Handler()
	feSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bin := r.URL.Path == "/v1/bin/get"
		switch {
		case bin:
			body, _ := io.ReadAll(r.Body)
			sums, err := decodeBinGetRequest(bytes.NewReader(body), binMaxBatch)
			if err != nil {
				t.Error(err)
			}
			rig.mu.Lock()
			rig.asked = append(rig.asked, sums)
			rig.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		case r.Method == http.MethodGet && isChunkReq(r):
			rig.mu.Lock()
			rig.jsonGot = append(rig.jsonGot, trimChunkPath(r.URL.Path))
			rig.mu.Unlock()
		default:
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && rig.damage != nil && rig.damaged.CompareAndSwap(false, true) {
			rig.damage(bin, body)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	metaSrv := httptest.NewServer(rig.meta.Handler())
	t.Cleanup(feSrv.Close)
	t.Cleanup(metaSrv.Close)
	rig.meta.AddFrontEnd(feSrv.URL)
	pol := fastRetry
	rig.client = NewClient(ClientConfig{
		MetaURL: metaSrv.URL, UserID: 5, DeviceID: 5, Device: trace.Android,
		Parallel: parallel, Retry: &pol, Metrics: NewClientMetrics(metrics.NewRegistry()),
	})
	return rig
}

// upload stores data through the client and forgets the requests that
// took.
func (rig *retrieveRig) upload(t *testing.T, data []byte) string {
	t.Helper()
	res, err := rig.client.StoreFile("r.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	rig.mu.Lock()
	rig.asked, rig.jsonGot = nil, nil
	rig.mu.Unlock()
	return res.URL
}

// requests returns what the bin/get and JSON chunk GET requests asked
// for so far.
func (rig *retrieveRig) requests() (asked [][]Sum, jsonGot []string) {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	return append([][]Sum(nil), rig.asked...), append([]string(nil), rig.jsonGot...)
}

func lens(batches [][]Sum) []int {
	out := make([]int, len(batches))
	for i, b := range batches {
		out[i] = len(b)
	}
	return out
}

// flipFirstPayloadBit damages the first chunk of a response after
// framing: the frame CRC catches it on the binary dialect, the chunk
// MD5 on JSON.
func flipFirstPayloadBit(bin bool, body []byte) {
	if bin {
		body[recHeaderSize+100] ^= 0x10
	} else {
		body[100] ^= 0x10
	}
}

// forgeFirstFrame replaces the first frame's payload with other bytes
// of the same length under a header that still names the requested
// digest, with a CRC that matches: consistent as far as the transport
// can tell, wrong content.
func forgeFirstFrame(_ bool, body []byte) {
	var sum Sum
	copy(sum[:], body[:16])
	n := binary.LittleEndian.Uint32(body[16:20])
	payload := body[recHeaderSize : recHeaderSize+int(n)]
	for k := range payload {
		payload[k] ^= 0xA5
	}
	encodeHeader(body[:recHeaderSize], sum, n, payload)
}

// opGoroutines counts the goroutines still running file-operation
// code: a retrieve's verifier, an upload's hasher, either's window.
func opGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*retrieval)")) || bytes.Contains(g, []byte("(*upload)")) ||
			bytes.Contains(g, []byte("storage.runWindow")) {
			n++
		}
	}
	return n
}

// checkNoOpGoroutines fails if a goroutine a file operation started is
// still alive shortly after the operation returned (the grace covers a
// goroutine between its last statement and its exit).
func checkNoOpGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for opGoroutines() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d file-operation goroutines outlived the call", opGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// editChain rewrites the chain values metadata holds for the file
// behind url, as an older client (none) or a lying one would have left
// them.
func (rig *retrieveRig) editChain(t *testing.T, url string, edit func([]Sum) []Sum) {
	t.Helper()
	rig.meta.mu.Lock()
	defer rig.meta.mu.Unlock()
	f, ok := rig.meta.byURL[url]
	if !ok {
		t.Fatalf("no file at %s", url)
	}
	f.Chain = edit(f.Chain)
}

// chainShapes are the file sizes the chain rows cover: no chain (0
// bytes, one chunk), an exact multiple of ChunkSize, and more chunks
// than one lane pass holds.
var chainShapes = []int{0, ChunkSize - 999, 4 * ChunkSize, 16*ChunkSize + 777}

// numChunks is the chunk count of a size-byte file.
func numChunks(size int) int { return (size + ChunkSize - 1) / ChunkSize }

// binBatches is how many bin/get batches a retrieve of n chunks sends
// at the given window.
func binBatches(n, parallel int) int {
	if n == 0 {
		return 0
	}
	per := batchSize(n, min(parallel, n))
	return (n + per - 1) / per
}

// TestRetrieveCorruptionMatrix damages retrieves in every way the read
// path must survive, at windows 1 and 2, over the binary dialect and
// the JSON fallback. A damaged chunk is caught where it arrives (frame
// CRC, or chunk MD5 on JSON) and re-fetched; a forged frame that the
// transport cannot tell from a good one breaks the hash chain or the
// file digest, and is located and re-fetched; metadata whose chunk
// list disagrees with its file digest fails with no bytes, with a
// chain or without. A wrong chain value over right bytes costs one
// whole-file pass and no fetch, and a file without a chain is folded
// in one pass. No retrieve goroutine outlives its call on any of these
// paths (run under -race).
func TestRetrieveCorruptionMatrix(t *testing.T) {
	const size = 5*ChunkSize + 4321
	files := make(map[int][]byte)
	for i, n := range chainShapes {
		files[n] = chunkedData(t, 700+uint64(i), n)
	}
	seed := uint64(0)
	for _, parallel := range []int{1, 2} {
		for _, dialect := range []string{"bin", "json"} {
			rig := func(t *testing.T) *retrieveRig {
				seed++
				return newRetrieveRig(t, parallel, dialect == "json")
			}
			name := fmt.Sprintf("parallel=%d/%s/", parallel, dialect)
			// passes is what a clean retrieve hashes per byte: the
			// verifier, plus each chunk's own MD5 check on JSON.
			passes := int64(1)
			if dialect == "json" {
				passes = 2
			}

			t.Run(name+"flipped-bit", func(t *testing.T) {
				rig := rig(t)
				data := chunkedData(t, 500+seed, size)
				url := rig.upload(t, data)
				rig.damage = flipFirstPayloadBit
				got, err := rig.client.RetrieveFile(url)
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("retrieve after a flipped bit: %v (equal %v)", err, bytes.Equal(got, data))
				}
				if !rig.damaged.Load() || rig.client.cfg.Metrics.Stats().Refetches < 1 {
					t.Fatalf("damaged %v, refetches %d", rig.damaged.Load(), rig.client.cfg.Metrics.Stats().Refetches)
				}
				// Caught by the CRC inside the batch and retried there:
				// one more bin/get than there are batches, no JSON GET.
				if asked, jsonGot := rig.requests(); dialect == "bin" && (len(asked) != parallel+1 || len(jsonGot) != 0) {
					t.Fatalf("bin/get %d, JSON GET %d; want %d and 0", len(asked), len(jsonGot), parallel+1)
				}
				checkNoOpGoroutines(t)
			})

			if dialect == "bin" {
				// The forged frame is the first of whichever batch is
				// served first: under a right chain its link (or, for
				// the last chunk or a one-chunk file, the file digest)
				// breaks.
				t.Run(name+"forged-frame", func(t *testing.T) {
					for _, n := range append([]int{size}, chainShapes[1:]...) {
						rig := rig(t)
						data := files[n]
						if data == nil {
							data = chunkedData(t, 500+seed, n)
						}
						url := rig.upload(t, data)
						rig.damage = forgeFirstFrame
						got, err := rig.client.RetrieveFile(url)
						if err != nil || !bytes.Equal(got, data) {
							t.Fatalf("%d bytes: retrieve after a forged frame: %v (equal %v)", n, err, bytes.Equal(got, data))
						}
						if !rig.damaged.Load() || rig.client.cfg.Metrics.Stats().Refetches != 1 {
							t.Fatalf("%d bytes: damaged %v, refetches %d", n, rig.damaged.Load(), rig.client.cfg.Metrics.Stats().Refetches)
						}
						// The CRC passed, so no batch retried; the chain
						// or the file digest caught it and exactly the
						// forged chunk was re-fetched.
						if asked, jsonGot := rig.requests(); len(asked) != binBatches(numChunks(n), parallel) || len(jsonGot) != 1 {
							t.Fatalf("%d bytes: bin/get %d, JSON GET %d; want %d and 1", n, len(asked), len(jsonGot), binBatches(numChunks(n), parallel))
						}
						checkNoOpGoroutines(t)
					}
				})
			}

			t.Run(name+"chunk-list-disagrees", func(t *testing.T) {
				rig := rig(t)
				for _, n := range []int{777, 2*ChunkSize + 777, 4 * ChunkSize, 16*ChunkSize + 777} {
					for _, chained := range []bool{false, true} {
						data := chunkedData(t, 900+seed+uint64(n), n)
						claimed := append([]byte(nil), data...)
						claimed[0] ^= 0xFF
						req := StoreCheckRequest{UserID: 5, Name: "liar.bin", Size: int64(n), FileMD5: SumBytes(claimed).String()}
						if chained {
							// The chain is the true bytes' own: every link
							// holds and only the last chunk's check fails.
							_, chain := sumChained(data)
							req.ChainMD5s = sumStrings(chain)
						}
						chk, err := rig.meta.StoreCheckCtx(bg, req)
						if err != nil {
							t.Fatal(err)
						}
						sums := SplitSums(data)
						for i, sum := range sums {
							if err := rig.store.PutCtx(bg, sum, data[i*ChunkSize:min((i+1)*ChunkSize, len(data))]); err != nil {
								t.Fatal(err)
							}
						}
						if err := rig.meta.CommitCtx(bg, 0, chk.URL, sums); err != nil {
							t.Fatal(err)
						}
						got, err := rig.client.RetrieveFile(chk.URL)
						if !errors.Is(err, errFileDigest) || got != nil {
							t.Fatalf("%d bytes, chained %v: RetrieveFile = %d bytes, %v; want no bytes and a digest error", n, chained, len(got), err)
						}
						checkNoOpGoroutines(t)
					}
				}
			})

			t.Run(name+"wrong-chain", func(t *testing.T) {
				for _, n := range chainShapes {
					if numChunks(n) < 2 {
						continue // no chain to be wrong
					}
					for _, at := range []int{0, numChunks(n) - 2} {
						rig := rig(t)
						data := files[n]
						url := rig.upload(t, data)
						rig.editChain(t, url, func(chain []Sum) []Sum {
							if len(chain) != numChunks(n)-1 {
								t.Fatalf("%d bytes: stored chain has %d values, want %d", n, len(chain), numChunks(n)-1)
							}
							chain[at][3] ^= 0x40
							return chain
						})
						before := hashPasses.Load()
						got, err := rig.client.RetrieveFile(url)
						if err != nil || !bytes.Equal(got, data) {
							t.Fatalf("%d bytes, value %d wrong: %v (equal %v)", n, at, err, bytes.Equal(got, data))
						}
						if h := hashPasses.Load() - before; h != (passes+1)*int64(n) {
							t.Errorf("%d bytes, value %d wrong: hashed %.2f passes, want %d", n, at, float64(h)/float64(n), passes+1)
						}
						asked, jsonGot := rig.requests()
						if refetches := rig.client.cfg.Metrics.Stats().Refetches; refetches != 0 {
							t.Errorf("%d bytes, value %d wrong: %d refetches, want none", n, at, refetches)
						}
						if dialect == "bin" && (len(asked) != binBatches(numChunks(n), parallel) || len(jsonGot) != 0) {
							t.Errorf("%d bytes: bin/get %d, JSON GET %d; want %d and 0", n, len(asked), len(jsonGot), binBatches(numChunks(n), parallel))
						}
						if dialect == "json" && len(jsonGot) != numChunks(n) {
							t.Errorf("%d bytes: JSON GET %d, want %d", n, len(jsonGot), numChunks(n))
						}
						checkNoOpGoroutines(t)
					}
				}
			})

			t.Run(name+"no-chain", func(t *testing.T) {
				for _, n := range chainShapes {
					rig := rig(t)
					data := files[n]
					url := rig.upload(t, data)
					rig.editChain(t, url, func([]Sum) []Sum { return nil })
					before := hashPasses.Load()
					got, err := rig.client.RetrieveFile(url)
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("%d bytes without a chain: %v (equal %v)", n, err, bytes.Equal(got, data))
					}
					if h := hashPasses.Load() - before; h != passes*int64(n) {
						t.Errorf("%d bytes without a chain: hashed %d bytes, want %d", n, h, passes*int64(n))
					}
					checkNoOpGoroutines(t)
				}
			})
		}
	}
}

// TestRetrieveHashesEachByteOnce pins the read path's pass count with
// the always-on counter: a retrieve of N bytes over mcsbin/1 hashes
// exactly N (the verifier's; frames are CRC-checked only), at any
// window and any chunk count, whether the file's chain values are
// there to check each chunk on its own or it is folded in one chain.
// Over the per-chunk JSON fallback each chunk is MD5-checked as it
// arrives and then verified, so that path hashes 2N.
func TestRetrieveHashesEachByteOnce(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		for _, json := range []bool{false, true} {
			for _, chained := range []bool{true, false} {
				rig := newRetrieveRig(t, parallel, json)
				passes := int64(1)
				if json {
					passes = 2
				}
				for _, size := range []int{4 << 20, ChunkSize + 12345, 40000} {
					data := chunkedData(t, uint64(size+parallel), size)
					url := rig.upload(t, data)
					rig.editChain(t, url, func(chain []Sum) []Sum {
						if len(chain) != numChunks(size)-1 {
							t.Fatalf("%d bytes: stored chain has %d values, want %d", size, len(chain), numChunks(size)-1)
						}
						if !chained {
							return nil
						}
						return chain
					})
					before := hashPasses.Load()
					got, err := rig.client.RetrieveFile(url)
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("retrieve: %v", err)
					}
					if n := hashPasses.Load() - before; n != passes*int64(size) {
						t.Errorf("parallel=%d json=%v chained=%v: a %d-byte retrieve hashed %d bytes (%.2f passes), want %d",
							parallel, json, chained, size, n, float64(n)/float64(size), passes)
					}
				}
			}
		}
	}
}

// TestBatchRetryFetchesOnlyMissing: a transport that cuts every bin/get
// response after three frames makes each attempt land three more
// chunks; every retry asks for exactly the chunks that have not landed,
// and a batch that runs out of attempts hands only those to the JSON
// fallback. Run under -race: a re-requested landed slot would be
// rewritten while the verifier reads it.
func TestBatchRetryFetchesOnlyMissing(t *testing.T) {
	const frames = 3
	for _, attempts := range []int{4, 2} {
		t.Run(fmt.Sprintf("attempts=%d", attempts), func(t *testing.T) {
			rig := newRetrieveRig(t, 1, false)
			data := chunkedData(t, 71, 8*ChunkSize)
			url := rig.upload(t, data)
			rig.client = reconfigure(rig.client, func(cfg *ClientConfig) {
				pol := *cfg.Retry
				pol.MaxAttempts = attempts
				cfg.Retry = &pol
				cfg.HTTP = &http.Client{Transport: faults.NewTransport(faults.Scenario{
					Seed:          1,
					TruncateRate:  1,
					TruncateAfter: frames * (recHeaderSize + ChunkSize),
					PathPrefix:    "/v1/bin/get",
				}, nil)}
			})
			got, err := rig.client.RetrieveFile(url)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("retrieve through a cutting transport: %v", err)
			}

			sums := SplitSums(data)
			var want [][]Sum
			for lo := 0; lo < len(sums) && len(want) < attempts; lo += frames {
				want = append(want, sums[lo:])
			}
			var wantJSON []string
			for _, s := range sums[min(attempts*frames, len(sums)):] {
				wantJSON = append(wantJSON, s.String())
			}
			asked, jsonGot := rig.requests()
			if !reflect.DeepEqual(asked, want) {
				t.Errorf("bin/get requests asked for %d, want %d: each retry must list only the chunks not landed", lens(asked), lens(want))
			}
			if !reflect.DeepEqual(jsonGot, wantJSON) {
				t.Errorf("JSON fallback fetched %v, want %v", jsonGot, wantJSON)
			}
			checkNoOpGoroutines(t)
		})
	}
}
