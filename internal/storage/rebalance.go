package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	// HTTP is the transport; nil uses the shared replica client.
	HTTP *http.Client
	// Prune deletes copies from nodes the ring does not assign — only
	// after a batched stat confirms every owner holds the chunk.
	Prune bool
	// DryRun reports what would change without moving bytes.
	DryRun bool
	// Logf, when set, receives per-action progress lines.
	Logf func(format string, args ...interface{})

	// binNodes remembers which nodes advertised the binary chunk
	// dialect during the census, so the re-streaming pass moves bytes
	// over mcsbin/1 frames where both ends speak it.
	binNodes map[string]bool
}

// noteBin records node's advertised dialect set from a response.
func (rb *Rebalancer) noteBin(node string, h http.Header) {
	if rb.binNodes == nil {
		rb.binNodes = make(map[string]bool)
	}
	rb.binNodes[node] = binAdvertised(h)
}

func (rb *Rebalancer) binNode(node string) bool { return rb.binNodes[node] }

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

func (rb *Rebalancer) client() *http.Client {
	if rb.HTTP != nil {
		return rb.HTTP
	}
	return replicaHTTPClient
}

// Run executes one rebalance pass.
func (rb *Rebalancer) Run() (RebalanceReport, error) {
	var rep RebalanceReport
	info, err := rb.clusterInfo(rb.Seed)
	if err != nil {
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
		chunks, err := rb.listChunks(node)
		if err != nil {
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
			if err := rb.putTo(o, fr); err != nil {
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
				if err := rb.deleteFrom(node, pc.sum); err != nil {
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
		missing, err := rb.statNode(owner, sums)
		if err != nil {
			// Can't verify this owner: fail safe, confirm none of its chunks.
			for _, s := range sums {
				confirmed[s] = false
			}
			continue
		}
		for _, m := range missing {
			if sum, err := ParseSum(m); err == nil {
				confirmed[sum] = false
			}
		}
	}
	return confirmed
}

// --- wire calls (replica dialect: local-store semantics) ---------------

func (rb *Rebalancer) clusterInfo(node string) (*ClusterInfo, error) {
	req, err := replicaReq(http.MethodGet, node, "/v1/cluster/info", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rb.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb.noteBin(node, resp.Header)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var info ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

func (rb *Rebalancer) listChunks(node string) ([]ChunkInfo, error) {
	req, err := replicaReq(http.MethodGet, node, "/v1/cluster/chunks", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rb.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb.noteBin(node, resp.Header)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var chunks []ChunkInfo
	if err := json.NewDecoder(resp.Body).Decode(&chunks); err != nil {
		return nil, err
	}
	return chunks, nil
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
		bin := rb.binNode(node)
		req, err := replicaGetReq(node, sum, bin)
		if err != nil {
			continue
		}
		resp, err := rb.client().Do(req)
		if err != nil {
			continue
		}
		fr, err := readReplicaFrame(resp, sum, bin)
		if err != nil {
			rb.logf("rebalance: fetch of %s from %s failed: %v", sum, node, err)
			continue
		}
		return fr
	}
	return nil
}

// putTo re-streams a verified frame to node as it stands; the node is
// its own ingress and verifies once. The rebalancer is no ring member
// and carries no peer stamp, so that check is always the MD5.
func (rb *Rebalancer) putTo(node string, fr *frame) error {
	ctx := context.Background()
	var req *http.Request
	var err error
	if rb.binNode(node) {
		req, err = replicaPutReq(ctx, node, newFrameQueue(fr), "")
	} else {
		req, err = replicaChunkReq(ctx, node, fr)
	}
	if err != nil {
		return err
	}
	resp, err := rb.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func (rb *Rebalancer) deleteFrom(node string, sum Sum) error {
	req, err := replicaReq(http.MethodDelete, node, "/v1/chunk/"+sum.String(), nil)
	if err != nil {
		return err
	}
	resp, err := rb.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// statNode asks one node which of the given chunks it is missing.
func (rb *Rebalancer) statNode(node string, sums []Sum) ([]string, error) {
	body, err := json.Marshal(StatRequest{ChunkMD5s: sumStrings(sums)})
	if err != nil {
		return nil, err
	}
	req, err := replicaReq(http.MethodPost, node, "/v1/op/stat", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rb.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var sr StatResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return sr.MissingMD5s, nil
}
