package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mcloud/internal/trace"
)

// withoutBinOps hides the X-MCS-Bin-Ops stamp, so the front-end looks
// like a mcsbin/1 server whose batches cannot carry the operation.
func withoutBinOps(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(binOpsStripper{w}, r)
	})
}

type binOpsStripper struct{ http.ResponseWriter }

func (s binOpsStripper) WriteHeader(code int) {
	s.Header().Del(BinOpsHeader)
	s.ResponseWriter.WriteHeader(code)
}

func (s binOpsStripper) Write(b []byte) (int, error) {
	s.Header().Del(BinOpsHeader)
	return s.ResponseWriter.Write(b)
}

// opService is one front-end and its metadata server, both logging the
// client requests they see, with the Table 1 log in a Collector.
type opService struct {
	meta           *Metadata
	col            *Collector
	feLog, metaLog reqLog
	metaURL        string
}

// newOpService starts the service; wrap, when set, sits between the
// request log and the front-end.
func newOpService(t *testing.T, disableBin bool, wrap func(http.Handler) http.Handler) *opService {
	t.Helper()
	s := &opService{meta: NewMetadata(), col: &Collector{}}
	fe := NewFrontEnd(FrontEndConfig{Store: NewMemStore(), Meta: s.meta, Sink: s.col, DisableBin: disableBin}).Handler()
	if wrap != nil {
		fe = wrap(fe)
	}
	feSrv := httptest.NewServer(s.feLog.wrap(fe))
	metaSrv := httptest.NewServer(s.metaLog.wrap(s.meta.Handler()))
	t.Cleanup(feSrv.Close)
	t.Cleanup(metaSrv.Close)
	s.metaURL = metaSrv.URL
	s.meta.AddFrontEnd(feSrv.URL)
	return s
}

func (s *opService) client(user uint64, parallel int) *Client {
	pol := fastRetry
	return NewClient(ClientConfig{MetaURL: s.metaURL, UserID: user, DeviceID: user, Device: trace.Android, Parallel: parallel, Retry: &pol})
}

// opFile is one file of the record-fidelity set, stored and then
// retrieved by the same client.
type opFile struct {
	name   string
	client *Client
	url    string
	data   []byte
	chunks int
}

// storeOpFiles stores the record-fidelity set: one chunk, eight chunks
// at Parallel 2, zero bytes, and a dedup-linked URL (a second user
// stores the eight-chunk content again, after a store of its own so it
// has heard the front-end's stamps too).
func storeOpFiles(t *testing.T, newClient func(user uint64, parallel int) *Client) []opFile {
	t.Helper()
	a, p2, b := newClient(1, 1), newClient(2, 2), newClient(3, 1)
	store := func(c *Client, name string, data []byte) string {
		t.Helper()
		res, err := c.StoreFile(name, data)
		if err != nil {
			t.Fatal(err)
		}
		return res.URL
	}
	one := chunkedData(t, 301, 40000)
	eight := chunkedData(t, 302, 8*ChunkSize)
	files := []opFile{
		{name: "one-chunk", client: a, url: store(a, "one.bin", one), data: one, chunks: 1},
		{name: "eight-chunks", client: p2, url: store(p2, "eight.bin", eight), data: eight, chunks: 8},
		{name: "zero-bytes", client: a, url: store(a, "empty.bin", nil), data: []byte{}, chunks: 0},
	}
	store(b, "own.bin", chunkedData(t, 303, 20000))
	res, err := b.StoreFile("linked.bin", eight)
	if err != nil || !res.Deduplicated {
		t.Fatalf("dedup store: %+v, %v", res, err)
	}
	return append(files, opFile{name: "dedup-link", client: b, url: res.URL, data: eight, chunks: 8})
}

// retrieveRecords retrieves f and returns the Table 1 records the
// retrieve added to col, once log's servers are idle.
func retrieveRecords(t *testing.T, col *Collector, log *reqLog, f opFile) (file trace.Log, chunks []trace.Log) {
	t.Helper()
	log.settle(t)
	before := len(col.Logs())
	got, err := f.client.RetrieveFile(f.url)
	if err != nil || !bytes.Equal(got, f.data) {
		t.Fatalf("%s: retrieve: %v (equal %v)", f.name, err, bytes.Equal(got, f.data))
	}
	log.settle(t)
	var files []trace.Log
	for _, l := range col.Logs()[before:] {
		switch l.Type {
		case trace.FileRetrieve:
			files = append(files, l)
		case trace.ChunkRetrieve:
			chunks = append(chunks, l)
		default:
			t.Errorf("%s: a retrieve logged a %s record", f.name, l.Type)
		}
	}
	if len(files) != 1 {
		t.Fatalf("%s: %d file-retrieve records, want exactly 1", f.name, len(files))
	}
	if files[0].UserID != f.client.cfg.UserID {
		t.Errorf("%s: file-retrieve record for user %d, want %d", f.name, files[0].UserID, f.client.cfg.UserID)
	}
	if len(chunks) != f.chunks {
		t.Errorf("%s: %d chunk-retrieve records, want %d", f.name, len(chunks), f.chunks)
	}
	return files[0], chunks
}

// TestRetrieveLogsOneFileRecord keeps the Table 1 log faithful now that
// the file retrieval operation rides the first chunk batch: every
// RetrieveFile writes exactly one file-retrieve record, for one chunk,
// eight chunks at Parallel 2, zero bytes and a dedup-linked URL, on one
// node and on a 3-node N=3 ring. A front-end that advertises the
// operation on its batches sees only the resolve (at metadata) and
// bin/get batches, one of them carrying the operation, and logs the
// file's record no later than the first chunk record of that batch.
// A JSON-only front-end, and one whose stamp is stripped on the way
// out, still get POST /v1/op/retrieve.
func TestRetrieveLogsOneFileRecord(t *testing.T) {
	for _, tc := range []struct {
		name       string
		disableBin bool
		wrap       func(http.Handler) http.Handler
	}{
		{"single/capable", false, nil},
		{"single/json-only", true, nil},
		{"single/stamp-stripped", false, withoutBinOps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newOpService(t, tc.disableBin, tc.wrap)
			rides := !tc.disableBin && tc.wrap == nil
			for _, f := range storeOpFiles(t, s.client) {
				s.feLog.take()
				s.metaLog.take()
				file, chunks := retrieveRecords(t, s.col, &s.feLog, f)
				if got := s.metaLog.take(); !reflect.DeepEqual(got, []string{"POST /v1/meta/resolve"}) {
					t.Errorf("%s: metadata saw %v, want one resolve", f.name, got)
				}
				fe := s.feLog.take()
				ops, riding := 0, 0
				for _, e := range fe {
					switch {
					case e == "POST /v1/op/retrieve":
						ops++
					case e == "POST /v1/bin/get +op":
						riding++
					case e != "POST /v1/bin/get" && e != "GET /v1/chunk/":
						t.Errorf("%s: front-end saw %q", f.name, e)
					}
				}
				wantOps, wantRiding := 1, 0
				if rides && f.chunks > 0 {
					wantOps, wantRiding = 0, 1
				}
				if ops != wantOps || riding != wantRiding {
					t.Errorf("%s: front-end saw %v: %d operation requests and %d batches carrying the operation, want %d and %d",
						f.name, fe, ops, riding, wantOps, wantRiding)
				}
				// The record carries its request's start time. A riding
				// operation shares it with the first chunk record of its
				// batch; with two batches in flight the other one may reach
				// the front-end first, so that one is not compared.
				first := false
				for _, c := range chunks {
					first = first || c.Time.Equal(file.Time)
					if c.Time.Before(file.Time) && (!rides || f.client.window(f.chunks) == 1) {
						t.Errorf("%s: chunk record at %v precedes the file record at %v", f.name, c.Time, file.Time)
					}
				}
				if riding > 0 && !first {
					t.Errorf("%s: no chunk record shares the riding operation's start time", f.name)
				}
			}
		})
	}

	t.Run("ring", func(t *testing.T) {
		nodes, meta := newTestCluster(t, 3, 3, 2)
		col := &Collector{}
		var seen reqLog
		for _, nd := range nodes {
			nd.fe = seen.wrap(NewFrontEnd(FrontEndConfig{Store: nd.rs, Meta: meta, Sink: col}).Handler())
			nd.up()
		}
		metaSrv := httptest.NewServer(meta.Handler())
		t.Cleanup(metaSrv.Close)
		meta.AddFrontEnd(nodes[0].url)
		pol := fastRetry
		newClient := func(user uint64, parallel int) *Client {
			return NewClient(ClientConfig{MetaURL: metaSrv.URL, UserID: user, DeviceID: user, Device: trace.Android, Parallel: parallel, Retry: &pol})
		}
		for _, f := range storeOpFiles(t, newClient) {
			seen.take()
			retrieveRecords(t, col, &seen, f)
			n := 0
			for _, e := range seen.take() {
				if e == "POST /v1/op/retrieve" || strings.HasSuffix(e, " +op") {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s: the operation went out %d times, want once", f.name, n)
			}
		}
	})
}

// stubMeta is a MetaService whose every call fails with err.
type stubMeta struct{ err error }

func (s stubMeta) CommitCtx(context.Context, int, string, []Sum) error { return s.err }
func (s stubMeta) LookupCtx(context.Context, int, Sum) (FileMeta, error) {
	return FileMeta{}, s.err
}

// TestRetrieveOpMetaErrorStatus: /op/retrieve answers 404 only for a
// real miss. A metadata outage — an untyped transport error from
// RemoteMeta, or a shard without a primary — must reach the client as
// a retryable status, or the client fails a retrieve it could retry.
func TestRetrieveOpMetaErrorStatus(t *testing.T) {
	body, _ := json.Marshal(FileOpRequest{UserID: 1, DeviceID: 1, Device: "android", FileMD5: SumBytes([]byte("x")).String()})
	for _, tc := range []struct {
		err       error
		status    int
		code      string
		retryable bool
	}{
		{errors.New("dial tcp 10.0.0.2:8070: connection refused"), http.StatusInternalServerError, CodeInternal, true},
		{ErrNotPrimary, http.StatusServiceUnavailable, CodeNotPrimary, true},
		{ErrNotFound, http.StatusNotFound, CodeNotFound, false},
	} {
		h := NewFrontEnd(FrontEndConfig{Store: NewMemStore(), Meta: stubMeta{tc.err}}).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/op/retrieve", bytes.NewReader(body)))
		var env APIError
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%v: %v", tc.err, err)
		}
		if rec.Code != tc.status || env.Code != tc.code || env.Retryable != tc.retryable {
			t.Errorf("LookupCtx error %q: status %d, code %q, retryable %v; want %d, %q, %v",
				tc.err, rec.Code, env.Code, env.Retryable, tc.status, tc.code, tc.retryable)
		}
	}
}

// cutFirstBinGet is a transport that cuts the first bin/get response
// body after a byte budget, once its 200 has arrived, and notes which
// bin/get attempts carried the file retrieval operation.
type cutFirstBinGet struct {
	after int64
	mu    sync.Mutex
	ops   []bool
}

func (c *cutFirstBinGet) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/bin/get" {
		return http.DefaultTransport.RoundTrip(req)
	}
	c.mu.Lock()
	first := len(c.ops) == 0
	c.ops = append(c.ops, req.Header.Get(FileRetrieveHeader) != "")
	c.mu.Unlock()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && first && resp.StatusCode == http.StatusOK {
		resp.Body = &cutBody{ReadCloser: resp.Body, left: c.after}
	}
	return resp, err
}

// TestRetrieveOpFaultPaths drives the riding operation through the
// failures that could duplicate or lose its record (run under -race,
// with the goroutine-leak check):
//   - every attempt of the chunk-0 batch answered 503: the retrieve
//     degrades to JSON, posts /op/retrieve, and logs one record;
//   - the chunk-0 batch cut after its 200: the retry carries no
//     operation and logs no second record;
//   - a reserved but uncommitted URL: ErrNotFound, and no chunk request.
func TestRetrieveOpFaultPaths(t *testing.T) {
	data := chunkedData(t, 311, 3*ChunkSize+555)
	records := func(col *Collector, typ trace.ReqType) int {
		n := 0
		for _, l := range col.Logs() {
			if l.Type == typ {
				n++
			}
		}
		return n
	}
	setup := func(t *testing.T, wrap func(http.Handler) http.Handler, rt http.RoundTripper) (*opService, *Client, string) {
		s := newOpService(t, false, wrap)
		client := s.client(1, 1)
		if rt != nil {
			client = reconfigure(client, func(cfg *ClientConfig) { cfg.HTTP = &http.Client{Transport: rt} })
		}
		res, err := client.StoreFile("f.bin", data)
		if err != nil {
			t.Fatal(err)
		}
		s.feLog.take()
		return s, client, res.URL
	}

	t.Run("chunk0-batch-503", func(t *testing.T) {
		var refused atomic.Int64
		s, client, url := setup(t, func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/bin/get" || r.Header.Get(FileRetrieveHeader) == "" {
					next.ServeHTTP(w, r)
					return
				}
				refused.Add(1)
				writeAPIError(w, r, http.StatusServiceUnavailable, fmt.Errorf("%w: test refusal", ErrUnavailable))
			})
		}, nil)
		got, err := client.RetrieveFile(url)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("retrieve: %v", err)
		}
		if n := refused.Load(); n != int64(client.cfg.Retry.MaxAttempts) {
			t.Errorf("%d chunk-0 batch attempts carried the operation, want every one of %d", n, client.cfg.Retry.MaxAttempts)
		}
		fe := s.feLog.take()
		ops, gets := 0, 0
		for _, e := range fe {
			switch e {
			case "POST /v1/op/retrieve":
				ops++
			case "GET /v1/chunk/":
				gets++
			}
		}
		if ops != 1 || gets != 4 {
			t.Errorf("front-end saw %v: %d operation requests and %d JSON chunk GETs, want 1 and 4", fe, ops, gets)
		}
		if n := records(s.col, trace.FileRetrieve); n != 1 {
			t.Errorf("%d file-retrieve records, want 1", n)
		}
		checkNoOpGoroutines(t)
	})

	t.Run("cut-after-200", func(t *testing.T) {
		cut := &cutFirstBinGet{after: recHeaderSize + ChunkSize + 100}
		s, client, url := setup(t, nil, cut)
		got, err := client.RetrieveFile(url)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("retrieve: %v", err)
		}
		cut.mu.Lock()
		ops := cut.ops
		cut.mu.Unlock()
		if !reflect.DeepEqual(ops, []bool{true, false}) {
			t.Errorf("bin/get attempts carried the operation %v, want [true false]", ops)
		}
		if fe := s.feLog.take(); !reflect.DeepEqual(fe, []string{"POST /v1/bin/get +op", "POST /v1/bin/get"}) {
			t.Errorf("front-end saw %v", fe)
		}
		if n := records(s.col, trace.FileRetrieve); n != 1 {
			t.Errorf("%d file-retrieve records, want 1", n)
		}
		checkNoOpGoroutines(t)
	})

	t.Run("reserved-uncommitted", func(t *testing.T) {
		s, client, _ := setup(t, nil, nil)
		other := chunkedData(t, 312, 2*ChunkSize)
		chk, err := s.meta.StoreCheckCtx(bg, StoreCheckRequest{
			UserID: 1, Name: "pending.bin", Size: int64(len(other)), FileMD5: SumBytes(other).String(),
		})
		if err != nil || chk.Duplicate {
			t.Fatalf("reserve: %+v, %v", chk, err)
		}
		got, err := client.RetrieveFile(chk.URL)
		if !errors.Is(err, ErrNotFound) || got != nil {
			t.Fatalf("RetrieveFile of a reserved URL = %d bytes, %v; want ErrNotFound", len(got), err)
		}
		for _, e := range s.feLog.take() {
			if e != "POST /v1/op/retrieve" {
				t.Errorf("front-end saw %q: a chunk request for an uncommitted file", e)
			}
		}
		if n := records(s.col, trace.FileRetrieve); n != 0 {
			t.Errorf("%d file-retrieve records for a retrieve that found nothing", n)
		}
		checkNoOpGoroutines(t)
	})
}
