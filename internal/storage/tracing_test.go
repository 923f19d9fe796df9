package storage

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/trace"
	"mcloud/internal/tracing"
)

// tracedService boots a single-node service whose front-end and client
// share one tracer, so a single Snapshot joins both sides end-to-end.
func tracedService(t *testing.T, wrap func(http.Handler) http.Handler) (*Client, *tracing.Tracer, func()) {
	t.Helper()
	tr := tracing.New(tracing.Config{Node: "solo"})
	store := NewMemStore()
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{Store: store, Meta: meta, Tracer: tr})
	h := fe.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	feSrv := httptest.NewServer(h)
	metaSrv := httptest.NewServer(meta.Handler())
	meta.AddFrontEnd(feSrv.URL)
	pol := fastRetry
	client := NewClient(ClientConfig{
		MetaURL:  metaSrv.URL,
		UserID:   42,
		DeviceID: 7,
		Device:   trace.Android,
		Retry:    &pol,
		Tracer:   tr,
	})
	return client, tr, func() { feSrv.Close(); metaSrv.Close() }
}

// diagnoseTracer joins the given exports and asserts every acked chunk
// transfer is complete, returning the diagnosis.
func assertJoined(t *testing.T, exports ...tracing.Export) tracing.Diagnosis {
	t.Helper()
	d := tracing.Diagnose(tracing.Join(exports))
	acked := 0
	for _, c := range d.Chunks {
		if !c.Acked {
			continue
		}
		acked++
		if !c.Complete {
			t.Errorf("acked %s chunk %.8s on trace %s did not join: %s", c.Dir, c.Chunk, c.Trace, c.Missing)
		}
	}
	if acked == 0 {
		t.Fatal("no acked chunk transfers diagnosed")
	}
	return d
}

// TestTraceJoinsSingleNode: the baseline — store + retrieve through a
// modern /v1 service, every acked chunk decomposes completely.
func TestTraceJoinsSingleNode(t *testing.T) {
	client, tr, cleanup := tracedService(t, nil)
	defer cleanup()

	data := chunkedData(t, 91, 2*ChunkSize+777)
	res, err := client.StoreFile("traced.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.RetrieveFile(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// The front-end ends a chunk read's span after its last byte is on
	// the wire, which can be after the client returned with it: closing
	// the servers waits for the handlers.
	cleanup()

	ex := tracing.Export{Node: tr.Node(), Spans: tr.Snapshot(tracing.Filter{})}
	d := assertJoined(t, ex)
	// A batched mcsbin/1 transfer decomposes as one diagnosis carrying
	// Count chunks, so tally carried chunks rather than spans.
	stores, retrieves := 0, 0
	for _, c := range d.Chunks {
		switch c.Dir {
		case "store":
			stores += c.Count
		case "retrieve":
			retrieves += c.Count
		}
		if c.Node != "solo" {
			t.Errorf("chunk served on node %q, want solo", c.Node)
		}
	}
	if stores != 3 || retrieves != 3 {
		t.Fatalf("diagnosed %d stores, %d retrieves; want 3 each", stores, retrieves)
	}
	if len(d.Ops) != 2 {
		t.Fatalf("diagnosed %d file ops, want 2", len(d.Ops))
	}
	for _, op := range d.Ops {
		if !op.Complete {
			t.Errorf("op %s incomplete", op.Op)
		}
	}
}

// TestTraceJoinsThroughLegacyNegotiation: a client falling back to the
// pre-/v1 dialect must still propagate trace headers — the probe 404
// becomes a faulted attempt, the legacy re-issue joins as the acked
// one. This is the regression test for propagation surviving the
// negotiation path.
func TestTraceJoinsThroughLegacyNegotiation(t *testing.T) {
	client, tr, cleanup := tracedService(t, legacyWrap)
	defer cleanup()

	data := chunkedData(t, 92, ChunkSize+321)
	res, err := client.StoreFile("legacy-traced.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RetrieveFile(res.URL); err != nil {
		t.Fatal(err)
	}
	cleanup() // wait for the handlers' spans, as above

	ex := tracing.Export{Node: tr.Node(), Spans: tr.Snapshot(tracing.Filter{})}
	d := assertJoined(t, ex)
	// The fallback happens on the first metadata POST, not on chunk
	// transfers, so chunk attempts stay single; what matters is that
	// every chunk joined despite the legacy dialect.
	for _, c := range d.Chunks {
		if c.Node != "solo" {
			t.Errorf("legacy-path chunk has node %q, want solo (server span missing?)", c.Node)
		}
	}
}

// TestTraceHeaderOnResponses: traced requests echo X-MCS-Trace on both
// success and error responses, and the v1 error envelope quotes the
// trace ID (how a user correlates a 503 with a trace).
func TestTraceHeaderOnResponses(t *testing.T) {
	tr := tracing.New(tracing.Config{Node: "solo"})
	store := NewMemStore()
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{Store: store, Meta: meta, Tracer: tr})
	srv := httptest.NewServer(fe.Handler())
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/chunk/"+fmt.Sprintf("%032x", 1), nil)
	req.Header.Set(APIHeader, APIV1)
	parent := tr.StartRoot("client", "probe")
	parent.Inject(req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	parent.End()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get(tracing.TraceHeader); got != parent.Trace.String() {
		t.Fatalf("error response %s = %q, want %s", tracing.TraceHeader, got, parent.Trace)
	}
	decoded := decodeError(resp)
	ae, ok := decoded.(*APIError)
	if !ok {
		t.Fatalf("decoded %T, want *APIError", decoded)
	}
	if ae.TraceID != parent.Trace.String() {
		t.Fatalf("envelope trace_id = %q, want %s", ae.TraceID, parent.Trace)
	}
}

// TestShedderQuotesTraceID: a shed 503 happens outside the tracing
// middleware, but the envelope must still quote the request's trace ID
// straight from the header.
func TestShedderQuotesTraceID(t *testing.T) {
	block := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	})
	shedder := NewShedder(1)
	srv := httptest.NewServer(shedder.Wrap(inner))
	defer srv.Close()
	defer close(block)

	// Occupy the only slot.
	go http.Get(srv.URL + "/hold")
	waitInflight := time.Now().Add(2 * time.Second)
	for shedder.Stats().InFlight == 0 {
		if time.Now().After(waitInflight) {
			t.Fatal("holder request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/shed", nil)
	req.Header.Set(APIHeader, APIV1)
	req.Header.Set(tracing.TraceHeader, "00000000deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(tracing.TraceHeader); got != "00000000deadbeef" {
		t.Fatalf("shed response trace header = %q", got)
	}
	ae, ok := decodeError(resp).(*APIError)
	if !ok || ae.TraceID != "00000000deadbeef" {
		t.Fatalf("shed envelope = %+v, want trace_id 00000000deadbeef", ae)
	}
}

// TestTraceJoinsAcrossCluster: the tentpole integration check — a
// 3-node replicated cluster, each node with its own tracer, a traced
// client storing and retrieving multi-chunk files. Joining the four
// exports must fully decompose every acked transfer, with replica
// fan-out spans crossing node boundaries.
func TestTraceJoinsAcrossCluster(t *testing.T) {
	const n = 3
	tracers := make([]*tracing.Tracer, n)
	handlers := make([]*switchHandler, n)
	peers := make([]string, n)
	for i := range handlers {
		handlers[i] = &switchHandler{}
		srv := httptest.NewServer(handlers[i])
		t.Cleanup(srv.Close)
		peers[i] = srv.URL
	}
	meta := NewMetadata()
	for i := range peers {
		tracers[i] = tracing.New(tracing.Config{Node: peers[i]})
		rs, err := NewReplicatedStore(ReplicatedConfig{
			Self:        peers[i],
			Peers:       peers,
			Replicas:    3,
			WriteQuorum: 2,
			Local:       NewMemStore(),
			Health:      cluster.NewHealth(1, 50*time.Millisecond),
			RepairEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		fe := NewFrontEnd(FrontEndConfig{Store: rs, Meta: meta, Tracer: tracers[i]})
		handlers[i].set(fe.Handler())
		meta.AddFrontEnd(peers[i])
	}
	metaSrv := httptest.NewServer(meta.Handler())
	t.Cleanup(metaSrv.Close)

	clientTr := tracing.New(tracing.Config{Node: "loadgen"})
	pol := fastRetry
	client := NewClient(ClientConfig{
		MetaURL:  metaSrv.URL,
		UserID:   5,
		DeviceID: 5,
		Device:   trace.Android,
		Retry:    &pol,
		Parallel: 4,
		Tracer:   clientTr,
	})

	var urls []string
	for i := 0; i < 3; i++ {
		data := chunkedData(t, uint64(100+i), 3*ChunkSize+i*1000)
		res, err := client.StoreFile(fmt.Sprintf("cluster-%d.bin", i), data)
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, res.URL)
	}
	for _, u := range urls {
		if _, err := client.RetrieveFile(u); err != nil {
			t.Fatal(err)
		}
	}
	// Straggler replica writes may still be in flight after the quorum
	// ack; give their spans a moment to land in the rings.
	time.Sleep(100 * time.Millisecond)

	exports := []tracing.Export{{Node: "loadgen", Spans: clientTr.Snapshot(tracing.Filter{})}}
	for i, nodeTr := range tracers {
		exports = append(exports, tracing.Export{Node: peers[i], Spans: nodeTr.Snapshot(tracing.Filter{})})
	}
	d := assertJoined(t, exports...)

	// Replication must be visible: some store chunk saw fan-out time
	// spent on a remote replica (spans from more than one node).
	nodesSeen := map[string]bool{}
	fanouts := 0
	for _, c := range d.Chunks {
		nodesSeen[c.Node] = true
		if c.Dir == "store" && c.Fanout > 0 {
			fanouts++
		}
	}
	if fanouts == 0 {
		t.Error("no store chunk shows fan-out time in a replicated cluster")
	}
	t.Logf("diagnosed %d chunks across nodes %v, %d with fan-out", len(d.Chunks), nodesSeen, fanouts)
}
