package storage

import (
	"testing"
)

func TestRebalanceRestoresPlacementAndPrunes(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 2, 2)

	// Scatter chunks deliberately wrong: each lands only on the one
	// node the ring does NOT assign it to.
	var sums []Sum
	for i := 0; i < 8; i++ {
		sum, data := replChunk(uint64(40+i), 4<<10)
		owners := nodes[0].rs.Owners(sum)
		ownerSet := map[string]bool{owners[0]: true, owners[1]: true}
		for _, nd := range nodes {
			if !ownerSet[nd.url] {
				if err := nd.local.PutCtx(bg, sum, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		sums = append(sums, sum)
	}

	rb := &Rebalancer{Seed: nodes[0].url, Prune: true, Logf: t.Logf}
	rep, err := rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 3 || rep.Replicas != 2 {
		t.Fatalf("report topology = %d nodes N=%d, want 3/2", rep.Nodes, rep.Replicas)
	}
	// Every chunk was on one wrong node: two owner copies to create,
	// one misplaced copy to prune.
	if rep.Replicated != 2*len(sums) {
		t.Errorf("replicated = %d, want %d", rep.Replicated, 2*len(sums))
	}
	if rep.Pruned != len(sums) {
		t.Errorf("pruned = %d, want %d", rep.Pruned, len(sums))
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d", rep.Errors)
	}

	for _, sum := range sums {
		owners := nodes[0].rs.Owners(sum)
		ownerSet := map[string]bool{owners[0]: true, owners[1]: true}
		for _, nd := range nodes {
			has := nd.local.Has(sum)
			if ownerSet[nd.url] && !has {
				t.Errorf("owner %s missing %s after rebalance", nd.url, sum)
			}
			if !ownerSet[nd.url] && has {
				t.Errorf("non-owner %s still holds %s after prune", nd.url, sum)
			}
		}
	}

	// A second pass is a no-op.
	rep, err = rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicated != 0 || rep.Pruned != 0 || rep.Misplaced != 0 {
		t.Errorf("second pass not idempotent: %+v", rep)
	}
}

func TestRebalanceDryRunMovesNothing(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 2, 2)
	sum, data := replChunk(60, 4<<10)
	owners := nodes[0].rs.Owners(sum)
	// Only the secondary holds the chunk.
	if err := nodeByURL(t, nodes, owners[1]).local.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}

	rb := &Rebalancer{Seed: nodes[0].url, DryRun: true}
	rep, err := rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicated != 1 {
		t.Errorf("dry run planned %d copies, want 1", rep.Replicated)
	}
	if nodeByURL(t, nodes, owners[0]).local.Has(sum) {
		t.Error("dry run moved bytes")
	}
}

// TestRebalanceMixedDialect: on a ring where node 2 withholds
// mcsbin/1, the rebalancer moves every chunk in the dialect each end
// speaks — JSON chunk routes to and from the legacy node, /v1/bin/get
// and /v1/bin/put between the others — learned from its census.
func TestRebalanceMixedDialect(t *testing.T) {
	nodes, _, _ := newDiskRing(t, 3, 2, 2, nil)
	legacySum, legacyData := replChunk(80, 4<<10)
	binSum, binData := replChunk(81, 4<<10)
	if err := nodes[2].disk.PutCtx(bg, legacySum, legacyData); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].disk.PutCtx(bg, binSum, binData); err != nil {
		t.Fatal(err)
	}

	rep, err := (&Rebalancer{Seed: nodes[0].url, Logf: t.Logf}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicated != 4 || rep.Errors != 0 {
		t.Fatalf("report %+v, want 4 copies and no errors", rep)
	}
	for i, nd := range nodes {
		if !nd.disk.Has(legacySum) || !nd.disk.Has(binSum) {
			t.Errorf("node %d lacks a chunk after the rebalance", i)
		}
	}
	for i, want := range []map[string]int{
		{"POST /bin/put (replica)": 2},
		{"POST /bin/put (replica)": 1, "POST /bin/get (replica)": 1},
		{"PUT /chunk (replica)": 1, "GET /chunk (replica)": 1},
	} {
		for _, route := range []string{"POST /bin/put (replica)", "POST /bin/get (replica)", "PUT /chunk (replica)", "GET /chunk (replica)"} {
			if got := nodes[i].served(route); got != want[route] {
				t.Errorf("node %d served %d %q, want %d", i, got, route, want[route])
			}
		}
	}
}
