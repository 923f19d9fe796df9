package storage

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/trace"
	"mcloud/internal/tracing"
)

// countingTransport counts the requests a client sends.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

// TestClientOpsHonourContext: a file operation ends with its context,
// takes its span from it, and leaves the client's shared state (the
// shard map) to later operations:
//   - an already-cancelled context sends no request and returns its
//     error;
//   - a deadline that runs out against a stalled front-end returns
//     within the deadline plus slack, with no hasher, fold or window
//     goroutine left behind;
//   - so does one that runs out while the front-end's ring is on its
//     way, and the next operation asks for the ring again;
//   - a context carrying a span makes the operation's span its child;
//   - an operation whose deadline runs out while the shard map is on
//     its way does not stop the next one from routing by shard.
func TestClientOpsHonourContext(t *testing.T) {
	const deadline = 150 * time.Millisecond
	const slack = 2 * time.Second
	data := chunkedData(t, 401, 5*ChunkSize+333)

	t.Run("cancelled", func(t *testing.T) {
		s := newOpService(t, false, nil)
		url, err := s.client(1, 4).StoreFileCtx(bg, "c.bin", data)
		if err != nil {
			t.Fatal(err)
		}
		sent := &countingTransport{}
		client := reconfigure(s.client(2, 4), func(cfg *ClientConfig) { cfg.HTTP = &http.Client{Transport: sent} })
		ctx, cancel := context.WithCancel(bg)
		cancel()
		if _, err := client.StoreFileCtx(ctx, "c2.bin", data); err != context.Canceled {
			t.Errorf("store under a cancelled context: %v, want %v", err, context.Canceled)
		}
		if got, err := client.RetrieveFileCtx(ctx, url.URL); err != context.Canceled || got != nil {
			t.Errorf("retrieve under a cancelled context: %d bytes, %v; want none, %v", len(got), err, context.Canceled)
		}
		if n := sent.n.Load(); n != 0 {
			t.Errorf("cancelled operations sent %d requests, want 0", n)
		}
	})

	t.Run("deadline-stalled-frontend", func(t *testing.T) {
		var stall atomic.Bool
		release := make(chan struct{})
		s := newOpService(t, false, func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if stall.Load() {
					select {
					case <-r.Context().Done():
					case <-release:
					}
					return
				}
				next.ServeHTTP(w, r)
			})
		})
		t.Cleanup(func() { close(release) })
		client := s.client(1, 4)
		stored, err := client.StoreFileCtx(bg, "d.bin", data)
		if err != nil {
			t.Fatal(err)
		}
		stall.Store(true)
		other := chunkedData(t, 402, 5*ChunkSize+444)
		for _, op := range []struct {
			name string
			run  func(ctx context.Context) error
		}{
			{"store", func(ctx context.Context) error {
				_, err := client.StoreFileCtx(ctx, "d2.bin", other)
				return err
			}},
			{"retrieve", func(ctx context.Context) error {
				_, err := client.RetrieveFileCtx(ctx, stored.URL)
				return err
			}},
		} {
			ctx, cancel := context.WithTimeout(bg, deadline)
			start := time.Now()
			err := op.run(ctx)
			took := time.Since(start)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s against a stalled front-end: %v, want %v", op.name, err, context.DeadlineExceeded)
			}
			if took > deadline+slack {
				t.Errorf("%s took %v past a %v deadline", op.name, took, deadline)
			}
			checkNoOpGoroutines(t)
		}
	})

	t.Run("ring-fetch-under-deadline", func(t *testing.T) {
		var stall atomic.Bool
		var infos atomic.Int64
		s := newOpService(t, false, func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/cluster/info" {
					infos.Add(1)
				}
				if stall.Load() {
					<-r.Context().Done()
					return
				}
				next.ServeHTTP(w, r)
			})
		})
		client := s.client(1, 4)
		stored, err := client.StoreFileCtx(bg, "r.bin", data)
		if err != nil {
			t.Fatal(err)
		}
		if n := infos.Load(); n != 0 {
			t.Fatalf("a store asked for the ring %d times; the retrieve below must be the first to", n)
		}
		stall.Store(true)
		ctx, cancel := context.WithTimeout(bg, deadline)
		start := time.Now()
		_, err = client.RetrieveFileCtx(ctx, stored.URL)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("retrieve whose deadline ran out during the ring fetch: %v, want %v", err, context.DeadlineExceeded)
		}
		if took > deadline+slack {
			t.Errorf("retrieve took %v past a %v deadline", took, deadline)
		}
		checkNoOpGoroutines(t)
		stall.Store(false)
		for i := 0; i < 2; i++ {
			if _, err := client.RetrieveFileCtx(bg, stored.URL); err != nil {
				t.Fatal(err)
			}
		}
		if n := infos.Load(); n != 2 {
			t.Errorf("ring fetches: %d, want 2 (the cut-off one, then one that is kept)", n)
		}
	})

	t.Run("span-from-context", func(t *testing.T) {
		s := newOpService(t, false, nil)
		client := s.client(1, 4)
		tr := tracing.New(tracing.Config{Node: "caller", Capacity: 1024})
		parent := tr.StartRoot("caller", "sync")
		ctx := tracing.NewContext(bg, parent)
		res, err := client.StoreFileCtx(ctx, "s.bin", data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.RetrieveFileCtx(ctx, res.URL); err != nil {
			t.Fatal(err)
		}
		parent.End()
		found := map[string]bool{}
		for _, sp := range tr.Snapshot(tracing.Filter{Trace: parent.Trace}) {
			if sp.Component != tracing.CompClient || (sp.Name != tracing.SpanStoreFile && sp.Name != tracing.SpanRetrieveFile) {
				continue
			}
			found[sp.Name] = true
			if sp.Trace != parent.Trace || sp.Parent != parent.ID {
				t.Errorf("%s span in trace %v under %v, want trace %v under %v", sp.Name, sp.Trace, sp.Parent, parent.Trace, parent.ID)
			}
		}
		if !found[tracing.SpanStoreFile] || !found[tracing.SpanRetrieveFile] {
			t.Errorf("client spans under the caller's span: %v, want both operations", found)
		}
	})

	t.Run("shard-map-outlives-deadline", func(t *testing.T) {
		var posts0, posts1 atomic.Int64
		var fetching atomic.Bool
		meta0, meta1 := NewMetadata(), NewMetadata()
		slowMap := func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/meta/shards" && !fetching.Swap(true) {
					time.Sleep(3 * deadline)
				}
				next.ServeHTTP(w, r)
			})
		}
		srv0 := httptest.NewServer(slowMap(countPosts(meta0.Handler(), &posts0)))
		defer srv0.Close()
		srv1 := httptest.NewServer(countPosts(meta1.Handler(), &posts1))
		defer srv1.Close()
		smap, err := cluster.NewMetaShardMap(1, [][]string{{srv0.URL}, {srv1.URL}})
		if err != nil {
			t.Fatal(err)
		}
		meta0.SetShard(0, smap)
		meta1.SetShard(1, smap)
		// A shard-1 user already holds the content, so the second
		// store dedups at the metadata plane: no front-end involved.
		small := []byte("routed by the shard map")
		commitFor(t, meta1, 1, shardUser(t, smap, 1, nil), small)
		user := shardUser(t, smap, 1, map[uint64]bool{shardUser(t, smap, 1, nil): true})

		pol := fastRetry
		client := NewClient(ClientConfig{MetaURL: srv0.URL, UserID: user, Device: trace.Android, Retry: &pol})
		ctx, cancel := context.WithTimeout(bg, deadline)
		defer cancel()
		start := time.Now()
		if _, err := client.StoreFileCtx(ctx, "first.bin", small); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("store whose deadline ran out during the shard-map fetch: %v", err)
		}
		if took := time.Since(start); took > deadline+slack {
			t.Errorf("first store took %v past a %v deadline", took, deadline)
		}
		res, err := client.StoreFileCtx(bg, "second.bin", small)
		if err != nil || !res.Deduplicated {
			t.Fatalf("second store: %+v, %v; want a dedup on the owner shard", res, err)
		}
		if n := posts0.Load(); n != 0 {
			t.Errorf("bootstrap shard 0 saw %d metadata requests for a shard-1 user, want 0 (no shard map)", n)
		}
		if n := posts1.Load(); n != 1 {
			t.Errorf("owner shard 1 saw %d metadata requests, want 1", n)
		}
	})
}
