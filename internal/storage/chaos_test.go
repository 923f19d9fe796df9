package storage

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mcloud/internal/faults"
	"mcloud/internal/metrics"
	"mcloud/internal/randx"
	"mcloud/internal/session"
	"mcloud/internal/trace"
)

// chaosScenario is the fixed ~10% disruptive-fault mix used by the
// end-to-end chaos tests: every decision is a pure function of the
// seed, so these runs are bit-reproducible.
var chaosScenario = faults.Scenario{
	Name:          "e2e",
	Seed:          7,
	ErrorRate:     0.05,
	ResetRate:     0.03,
	TruncateRate:  0.02,
	TruncateAfter: 200,
}

// chaosService builds a full service with fault-injection middleware on
// both the front-end and the metadata server, plus a resilient client.
// Keep-alives are disabled so connection-pool races cannot perturb the
// server-side request order.
func chaosService(t *testing.T, sc faults.Scenario, reg *metrics.Registry) (*Client, *Collector, *faults.Injector, func()) {
	t.Helper()
	store := NewMemStore()
	col := &Collector{}
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{Store: store, Meta: meta, Sink: col})

	injFE := faults.New(sc.Derive("frontend"))
	injMeta := faults.New(sc.Derive("meta"))
	if reg != nil {
		injFE.Instrument(reg, "frontend")
		injMeta.Instrument(reg, "meta")
	}
	feSrv := httptest.NewServer(injFE.Middleware(fe.Handler()))
	metaSrv := httptest.NewServer(injMeta.Middleware(meta.Handler()))
	meta.AddFrontEnd(feSrv.URL)

	pol := fastRetry
	pol.MaxAttempts = 6
	pol.Budget = 256
	client := NewClient(ClientConfig{
		MetaURL:    metaSrv.URL,
		UserID:     42,
		DeviceID:   7,
		Device:     trace.Android,
		Retry:      &pol,
		RetrySeed:  sc.Seed,
		MaxResumes: 6,
		// Sequential transfers: the deterministic-fault-sequence test
		// needs a reproducible server-side request order. Concurrency
		// is chaos-tested separately (see chaos_parallel_test.go).
		Parallel: 1,
		HTTP:     &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	cleanup := func() {
		feSrv.Close()
		metaSrv.Close()
	}
	return client, col, injFE, cleanup
}

// TestChaosStoreRetrieveInvariant is the headline robustness check:
// under ~10% injected faults on every service path, each store the
// service ACKNOWLEDGES must retrieve byte-identical, the request log
// must still support session analysis, and the injected faults and
// client retries must be visible in the metrics exposition.
func TestChaosStoreRetrieveInvariant(t *testing.T) {
	reg := metrics.NewRegistry()
	client, col, injFE, cleanup := chaosService(t, chaosScenario, reg)
	defer cleanup()
	clock := time.Date(2015, 8, 4, 9, 0, 0, 0, time.UTC)
	client = reconfigure(client, func(cfg *ClientConfig) {
		cfg.Metrics = NewClientMetrics(reg)
		cfg.SimClock = func() time.Time { return clock }
	})

	src := randx.New(99)
	type storedFile struct {
		url  string
		data []byte
	}
	var files []storedFile
	const want = 12
	for i := 0; i < want; i++ {
		n := ChunkSize + 1 + src.Intn(ChunkSize) // always 2 chunks
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(src.Uint64())
		}
		res, err := client.StoreFile(fmt.Sprintf("c%d.bin", i), data)
		if err != nil {
			// An unacknowledged store may fail under chaos; the invariant
			// covers acknowledged ones only.
			t.Logf("store %d not acknowledged: %v", i, err)
			continue
		}
		files = append(files, storedFile{res.URL, data})
		clock = clock.Add(20 * time.Second)
	}
	if len(files) < want-2 {
		t.Fatalf("only %d/%d stores acknowledged; retry machinery too weak for the fault rate", len(files), want)
	}

	// Two virtual hours later, a retrieve-only session reads everything
	// back — still through the fault injectors.
	clock = clock.Add(2 * time.Hour)
	for i, f := range files {
		var data []byte
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if data, err = client.RetrieveFile(f.url); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("acknowledged file %d unavailable: %v", i, err)
		}
		if !bytes.Equal(data, f.data) {
			t.Fatalf("acknowledged file %d corrupted after chaos run", i)
		}
		clock = clock.Add(10 * time.Second)
	}

	// The run must actually have been chaotic.
	if injFE.Injected() == 0 {
		t.Error("no faults injected at the front-end; scenario inert")
	}
	st := client.cfg.Metrics.Stats()
	if st.Retries == 0 {
		t.Error("no client retries recorded under a 10% fault rate")
	}

	// The request log still yields the scripted session structure.
	id := session.NewIdentifier(time.Hour)
	for _, l := range col.Logs() {
		id.Add(l)
	}
	sessions := id.Sessions()
	if len(sessions) != 2 {
		t.Fatalf("identified %d sessions, want 2 (store + retrieve)", len(sessions))
	}
	if sessions[0].Class() != session.StoreOnly {
		t.Errorf("session 1 class = %v, want store-only", sessions[0].Class())
	}
	if sessions[1].Class() != session.RetrieveOnly {
		t.Errorf("session 2 class = %v, want retrieve-only", sessions[1].Class())
	}

	// Faults, sheds and retries are scrapable.
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"mcs_faults_injected_total",
		"mcs_faults_requests_total",
		"mcs_client_retries_total",
		"mcs_client_retry_success_ratio",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
}

// TestChaosDeterministicFaultSequence replays the identical workload
// twice against fresh services with the same scenario seed and demands
// the bit-identical fault-kind sequence — the property that makes a
// chaos failure reproducible from its seed alone.
func TestChaosDeterministicFaultSequence(t *testing.T) {
	run := func() []faults.Kind {
		client, _, injFE, cleanup := chaosService(t, chaosScenario, nil)
		defer cleanup()

		var mu sync.Mutex
		var kinds []faults.Kind
		injFE.OnDecision = func(d faults.Decision) {
			mu.Lock()
			kinds = append(kinds, d.Kind)
			mu.Unlock()
		}

		src := randx.New(4242)
		var urls []string
		for i := 0; i < 6; i++ {
			data := make([]byte, ChunkSize+1+src.Intn(1000))
			for j := range data {
				data[j] = byte(src.Uint64())
			}
			res, err := client.StoreFile(fmt.Sprintf("d%d.bin", i), data)
			if err != nil {
				continue
			}
			urls = append(urls, res.URL)
		}
		for _, u := range urls {
			client.RetrieveFile(u) // outcome checked by the invariant test
		}
		mu.Lock()
		defer mu.Unlock()
		return kinds
	}

	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("fault sequences diverge across identically-seeded runs:\n run 1: %v\n run 2: %v", first, second)
	}
	injected := 0
	for _, k := range first {
		if k != faults.None {
			injected++
		}
	}
	if injected == 0 {
		t.Error("deterministic run injected nothing; scenario inert")
	}
}
