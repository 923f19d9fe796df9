package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// stripHeaderWriter removes one response header at write time — used
// to impersonate a server that predates the X-MCS-API stamp.
type stripHeaderWriter struct {
	http.ResponseWriter
	key   string
	wrote bool
}

func (w *stripHeaderWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.Header().Del(w.key)
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *stripHeaderWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// legacyWrap makes a modern front-end handler look like a pre-/v1
// server: versioned paths 404 without the API stamp, the stamp is
// stripped from every response, and the client's version advertisement
// is dropped so errors come back in the legacy body.
func legacyWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			http.NotFound(w, r)
			return
		}
		r.Header.Del(APIHeader)
		next.ServeHTTP(&stripHeaderWriter{ResponseWriter: w, key: APIHeader}, r)
	})
}

// TestV1ClientFallsBackToLegacyServer: a negotiated client meeting an
// old server must detect the bare 404, re-issue on the legacy paths,
// and remember the verdict for the host.
func TestV1ClientFallsBackToLegacyServer(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	record := func(next http.Handler) http.Handler {
		inner := legacyWrap(next)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			paths = append(paths, r.URL.Path)
			mu.Unlock()
			inner.ServeHTTP(w, r)
		})
	}
	client, _, cleanup := newFlakyService(t, false, record)
	defer cleanup()

	data := chunkedData(t, 31, ChunkSize+123)
	res, err := client.StoreFile("legacy.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.RetrieveFile(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip through legacy server returned different bytes")
	}

	mu.Lock()
	defer mu.Unlock()
	var v1 int
	for _, p := range paths {
		if strings.HasPrefix(p, "/v1/") {
			v1++
		}
	}
	// Exactly one probe pays the negotiation cost; everything after the
	// bare 404 stays on the legacy dialect.
	if v1 != 1 {
		t.Errorf("saw %d /v1 requests, want exactly 1 probe (paths: %v)", v1, paths)
	}
	if len(paths) <= v1 {
		t.Fatal("no legacy requests recorded")
	}
}

// TestLegacyClientAgainstV1Server: a client pinned to the old dialect
// must work against a modern server via the alias routes.
func TestLegacyClientAgainstV1Server(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	record := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			paths = append(paths, r.URL.Path)
			mu.Unlock()
			next.ServeHTTP(w, r)
		})
	}
	client, _, cleanup := newFlakyService(t, false, record)
	defer cleanup()
	client = reconfigure(client, func(cfg *ClientConfig) { cfg.LegacyAPI = true })

	data := chunkedData(t, 32, ChunkSize+55)
	res, err := client.StoreFile("pinned.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.RetrieveFile(res.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("legacy client round trip returned different bytes")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range paths {
		if strings.HasPrefix(p, "/v1/") {
			t.Errorf("legacy-pinned client sent a versioned request: %s", p)
		}
	}
}

// TestAPIErrorEnvelopeMapsToSentinels checks the wire error contract:
// an envelope rendered by the server decodes on the client into an
// error that errors.Is-matches the original sentinel, with the
// declared retryability honored by the retry policy.
func TestAPIErrorEnvelopeMapsToSentinels(t *testing.T) {
	cases := []struct {
		status    int
		err       error
		code      string
		retryable bool
	}{
		{http.StatusBadRequest, ErrBadDigest, CodeBadDigest, false},
		{http.StatusNotFound, ErrNotFound, CodeNotFound, false},
		{http.StatusRequestEntityTooLarge, ErrTooLarge, CodeTooLarge, false},
		{http.StatusServiceUnavailable, ErrOverloaded, CodeOverloaded, true},
		{http.StatusServiceUnavailable, ErrUnavailable, CodeUnavailable, true},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, "/v1/chunk/x", nil)
			writeAPIError(rec, req, tc.status, tc.err)
			resp := rec.Result()
			defer resp.Body.Close()
			// The recorder has no advertiseV1 middleware; stamp the
			// header the way a real server response carries it.
			resp.Header.Set(APIHeader, APIV1)

			decoded := decodeError(resp)
			var ae *APIError
			if !errors.As(decoded, &ae) {
				t.Fatalf("decoded %T, want *APIError", decoded)
			}
			if ae.Code != tc.code {
				t.Errorf("code = %s, want %s", ae.Code, tc.code)
			}
			if ae.Status != tc.status {
				t.Errorf("status = %d, want %d", ae.Status, tc.status)
			}
			if !errors.Is(decoded, tc.err) {
				t.Errorf("errors.Is(%v, %v) = false across the wire", decoded, tc.err)
			}
			if got := retryable(decoded); got != tc.retryable {
				t.Errorf("retryable = %v, want %v", got, tc.retryable)
			}
		})
	}
}

// TestLegacyErrorBodyStillMapsNotFound: legacy servers answer with the
// old {"error": ...} body; 404 detection must survive without the
// envelope.
func TestLegacyErrorBodyStillMapsNotFound(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, http.StatusNotFound, errors.New("no such chunk"))
	resp := rec.Result()
	defer resp.Body.Close()
	decoded := decodeError(resp)
	if !IsNotFound(decoded) {
		t.Fatalf("legacy 404 body not recognized: %v", decoded)
	}
}

// TestStatChunksBatch exercises the front-end's batched stat: one
// /v1/op/stat request resolves many digests.
func TestStatChunksBatch(t *testing.T) {
	store := NewMemStore()
	meta := NewMetadata()
	fe := NewFrontEnd(FrontEndConfig{Store: store, Meta: meta})
	feSrv := httptest.NewServer(fe.Handler())
	defer feSrv.Close()
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()
	meta.AddFrontEnd(feSrv.URL)
	client := NewClient(ClientConfig{MetaURL: metaSrv.URL, UserID: 1, DeviceID: 1})

	data := chunkedData(t, 33, 2*ChunkSize+9)
	if _, err := client.StoreFile("stat.bin", data); err != nil {
		t.Fatal(err)
	}
	sums := SplitSums(data)
	missing, _ := replChunk(77, 4<<10)
	query := append(sumStrings(sums), missing.String())

	body, err := json.Marshal(StatRequest{ChunkMD5s: query})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, feSrv.URL+"/v1/op/stat", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(APIHeader, APIV1)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/op/stat: %v", decodeError(resp))
	}
	var sr StatResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.MissingMD5s) != 1 || sr.MissingMD5s[0] != missing.String() {
		t.Fatalf("missing = %v, want just %s", sr.MissingMD5s, missing)
	}
}
