package storage

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"

	"mcloud/internal/cluster"
)

// Rebalancer walks a cluster and restores the invariant the ring
// declares: every chunk lives on exactly its N owners. It is the
// offline counterpart of the ReplicatedStore's online repair queue —
// the queue heals failures the writing node observed, the rebalancer
// heals what nobody observed (a node restored from an old disk, a
// membership change, a crash that lost the queue).
//
// The pass is idempotent and safe to run against a live cluster: all
// traffic carries the replica header, so reads and writes act on each
// node's local store and never re-enter the fan-out path.
type Rebalancer struct {
	// Seed is any live node's base URL; membership and the replication
	// factor are discovered from its /v1/cluster/info.
	Seed string
	// Prune deletes copies from nodes the ring does not assign — only
	// after a batched stat confirms every owner holds the chunk.
	Prune bool
	// DryRun reports what would change without moving bytes.
	DryRun bool
	// Logf, when set, receives per-action progress lines.
	Logf func(format string, args ...interface{})

	// peers is the pass's replica client, the one ring members use. It
	// learns each node's dialect from the census answers, so the
	// re-streaming moves bytes over mcsbin/1 frames where both ends
	// speak it. It carries no peer stamp: the rebalancer is no ring
	// member, so every node MD5-checks what it receives.
	peers *peerClient
}

// RebalanceReport summarizes one pass.
type RebalanceReport struct {
	Nodes      int `json:"nodes"`
	Replicas   int `json:"replicas"`
	Chunks     int `json:"chunks"`     // distinct chunks seen
	Copies     int `json:"copies"`     // replica copies seen
	Replicated int `json:"replicated"` // missing owner copies created
	Pruned     int `json:"pruned"`     // misplaced copies removed
	Misplaced  int `json:"misplaced"`  // copies on non-owner nodes
	Errors     int `json:"errors"`     // failed transfers (chunk left as-is)
	Unlistable int `json:"unlistable"` // nodes whose store cannot enumerate
}

func (rb *Rebalancer) logf(format string, args ...interface{}) {
	if rb.Logf != nil {
		rb.Logf(format, args...)
	}
}

// Run executes one rebalance pass.
func (rb *Rebalancer) Run() (RebalanceReport, error) {
	var rep RebalanceReport
	rb.peers = &peerClient{http: replicaHTTPClient, health: cluster.NewHealth(0, 0)}
	var info ClusterInfo
	if err := rb.census(rb.Seed, "/v1/cluster/info", &info); err != nil {
		return rep, fmt.Errorf("storage: rebalance: cluster info from %s: %w", rb.Seed, err)
	}
	if len(info.Peers) < 2 {
		return rep, fmt.Errorf("storage: rebalance: %s is not clustered", rb.Seed)
	}
	ring, err := cluster.NewRing(info.Peers, 0)
	if err != nil {
		return rep, err
	}
	rep.Nodes, rep.Replicas = len(info.Peers), info.Replicas

	// 1. Census: which node holds which chunks.
	holders := make(map[Sum]map[string]bool)
	for _, node := range info.Peers {
		var chunks []ChunkInfo
		if err := rb.census(node, "/v1/cluster/chunks", &chunks); err != nil {
			rb.logf("rebalance: list %s: %v", node, err)
			rep.Unlistable++
			continue
		}
		for _, ci := range chunks {
			sum, err := ParseSum(ci.MD5)
			if err != nil {
				continue
			}
			if holders[sum] == nil {
				holders[sum] = make(map[string]bool, info.Replicas)
			}
			holders[sum][node] = true
			rep.Copies++
		}
	}
	rep.Chunks = len(holders)
	// A node that cannot enumerate (no Ranger) still receives copies;
	// it just contributes nothing to the census. Refuse to prune in
	// that case — a "misplaced" copy might be the only one we can see.
	prune := rb.Prune && rep.Unlistable == 0

	// Deterministic order keeps reruns and logs stable.
	sums := make([]Sum, 0, len(holders))
	for sum := range holders {
		sums = append(sums, sum)
	}
	sort.Slice(sums, func(i, j int) bool {
		return bytes.Compare(sums[i][:], sums[j][:]) < 0
	})

	// 2. Restore placement: stream each chunk to owners missing it.
	var pruneCands []pruneCand
	for _, sum := range sums {
		have := holders[sum]
		owners := ring.Owners(cluster.Key(sum), info.Replicas)
		ownerSet := make(map[string]bool, len(owners))
		for _, o := range owners {
			ownerSet[o] = true
		}
		var fr *frame
		ok := true
		for _, o := range owners {
			if have[o] {
				continue
			}
			if rb.DryRun {
				rb.logf("rebalance: would copy %s -> %s", sum, o)
				rep.Replicated++
				continue
			}
			if fr == nil {
				fr = rb.fetchFrom(have, sum)
				if fr == nil {
					rb.logf("rebalance: no live copy of %s", sum)
					rep.Errors++
					ok = false
					break
				}
			}
			if err := rb.peers.sendFrames(context.Background(), o, newFrameQueue(fr)); err != nil {
				rb.logf("rebalance: copy %s -> %s: %v", sum, o, err)
				rep.Errors++
				ok = false
				continue
			}
			have[o] = true
			rep.Replicated++
			rb.logf("rebalance: copied %s -> %s", sum, o)
		}
		var misplaced []string
		for node := range have {
			if !ownerSet[node] {
				misplaced = append(misplaced, node)
			}
		}
		sort.Strings(misplaced)
		rep.Misplaced += len(misplaced)
		if prune && ok && len(misplaced) > 0 {
			pruneCands = append(pruneCands, pruneCand{sum, misplaced})
		}
	}

	// 3. Prune: before deleting any misplaced copy, confirm with one
	// batched stat per owner that the owners really hold their chunks
	// (the census could be stale against a live cluster).
	if len(pruneCands) > 0 {
		confirmed := rb.confirmOwners(ring, info.Replicas, pruneCands)
		for _, pc := range pruneCands {
			if !confirmed[pc.sum] {
				rb.logf("rebalance: skip prune of %s: owners unconfirmed", pc.sum)
				continue
			}
			for _, node := range pc.from {
				if rb.DryRun {
					rb.logf("rebalance: would prune %s from %s", pc.sum, node)
					rep.Pruned++
					continue
				}
				if err := rb.peers.deleteReplica(node, pc.sum); err != nil {
					rb.logf("rebalance: prune %s from %s: %v", pc.sum, node, err)
					rep.Errors++
					continue
				}
				rep.Pruned++
				rb.logf("rebalance: pruned %s from %s", pc.sum, node)
			}
		}
	}
	return rep, nil
}

// pruneCand is a chunk with misplaced copies awaiting owner
// confirmation before deletion.
type pruneCand struct {
	sum  Sum
	from []string
}

// confirmOwners issues one batched /v1/op/stat per owner covering every
// prune candidate it owns, and reports which chunks have all owners
// confirmed present.
func (rb *Rebalancer) confirmOwners(ring *cluster.Ring, n int, cands []pruneCand) map[Sum]bool {
	byOwner := make(map[string][]Sum)
	for _, pc := range cands {
		for _, o := range ring.Owners(cluster.Key(pc.sum), n) {
			byOwner[o] = append(byOwner[o], pc.sum)
		}
	}
	confirmed := make(map[Sum]bool, len(cands))
	for _, pc := range cands {
		confirmed[pc.sum] = true
	}
	for owner, sums := range byOwner {
		// An owner that cannot be asked confirms none of its chunks.
		present, err := rb.peers.statReplica(owner, sums)
		for i, s := range sums {
			if err != nil || !present[i] {
				confirmed[s] = false
			}
		}
	}
	return confirmed
}

// census reads one node's JSON answer to a cluster-internal GET.
func (rb *Rebalancer) census(node, path string, out interface{}) error {
	req, err := replicaReq(http.MethodGet, node, path, nil)
	if err != nil {
		return err
	}
	return rb.peers.call(node, req, out)
}

// fetchFrom is the rebalancer's ingress: it reads the chunk from any
// census holder, verifying it once as it arrives; nil when no holder
// answers with intact bytes. Over mcsbin/1 the frame header — the CRC
// from the holder's segment file — is kept for the re-stream.
func (rb *Rebalancer) fetchFrom(have map[string]bool, sum Sum) *frame {
	nodes := make([]string, 0, len(have))
	for n := range have {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		fr, err := rb.peers.getReplica(context.Background(), node, sum)
		if err == nil {
			return fr
		}
		rb.logf("rebalance: fetch of %s from %s failed: %v", sum, node, err)
	}
	return nil
}
