package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"mcloud/internal/randx"
	"mcloud/internal/storage"
)

// TestRebalancePrunesCachedClusterNode: on cluster nodes whose stores
// sit under the -cache LRU, a rebalance copies each misplaced chunk to
// its owners and prunes it from the node that held it, and the next
// census finds nothing left to move. The cache has no Delete, so a
// node that handed it to the replica-internal side refused every
// prune.
func TestRebalancePrunesCachedClusterNode(t *testing.T) {
	type node struct {
		url       string
		base, top storage.ChunkStore
		repl      *storage.ReplicatedStore
		h         http.Handler
	}
	nodes := make([]*node, 3)
	peers := make([]string, len(nodes))
	for i := range nodes {
		nd := &node{}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { nd.h.ServeHTTP(w, r) }))
		t.Cleanup(srv.Close)
		nd.url, peers[i], nodes[i] = srv.URL, srv.URL, nd
	}
	meta := storage.NewMetadata()
	for _, nd := range nodes {
		nd.base = storage.NewMemStore()
		nd.top = storage.NewCachedStore(nd.base, 8<<20)
		serve, local, repl, err := frontEndStores(nd.base, nd.top, &storage.ReplicatedConfig{
			Self:        nd.url,
			Peers:       peers,
			Replicas:    2,
			WriteQuorum: 2,
			RepairEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { repl.Close() })
		nd.repl = repl
		nd.h = storage.NewFrontEnd(storage.FrontEndConfig{Store: serve, Local: local, Meta: meta}).Handler()
	}

	// Each chunk lands only on the one node the ring does not assign
	// it to, through that node's cache.
	var sums []storage.Sum
	for i := 0; i < 8; i++ {
		src := randx.New(uint64(40 + i))
		data := make([]byte, 4<<10)
		for j := range data {
			data[j] = byte(src.Uint64())
		}
		sum := storage.SumBytes(data)
		owners := nodes[0].repl.Owners(sum)
		for _, nd := range nodes {
			if nd.url != owners[0] && nd.url != owners[1] {
				if err := nd.top.PutCtx(context.Background(), sum, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		sums = append(sums, sum)
	}

	rb := &storage.Rebalancer{Seed: nodes[0].url, Prune: true, Logf: t.Logf}
	rep, err := rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicated != 2*len(sums) || rep.Pruned != len(sums) || rep.Errors != 0 {
		t.Errorf("rebalance replicated %d, pruned %d, errors %d; want %d, %d, 0",
			rep.Replicated, rep.Pruned, rep.Errors, 2*len(sums), len(sums))
	}
	for _, sum := range sums {
		owners := nodes[0].repl.Owners(sum)
		for _, nd := range nodes {
			owner := nd.url == owners[0] || nd.url == owners[1]
			if has := nd.base.Has(sum); has != owner {
				t.Errorf("node %s holds %s: %v, want %v", nd.url, sum, has, owner)
			}
		}
	}
	rep, err = rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misplaced != 0 || rep.Replicated != 0 || rep.Pruned != 0 {
		t.Errorf("census after the prune still lists work: %+v", rep)
	}
}
