package storage

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/trace"
)

// vouchAll has every node prove every peer's stamp, the way the first
// replica batch between two nodes does, and waits for the callbacks.
func vouchAll(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		for _, peer := range nodes {
			for peer != nd && !nd.rs.trustedPeer(peer.rs.stamp) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never proved %s's stamp", nd.url, peer.url)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// provenToken reports the token nd has cached for peer, without
// starting a callback.
func provenToken(nd *clusterNode, peer string) string {
	nd.rs.auth.mu.Lock()
	defer nd.rs.auth.mu.Unlock()
	return nd.rs.auth.proven[peer]
}

// refuseVouch wraps a node's handler so it refuses every vouch
// callback: its peers can never prove its stamp.
func refuseVouch(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/vouch" {
			http.Error(w, "refused by the test", http.StatusForbidden)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// awaitReplicas waits until every node holds every chunk of data.
func awaitReplicas(t *testing.T, nodes []*clusterNode, sums []Sum) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		for _, sum := range sums {
			for !nd.local.Has(sum) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never received %s", nd.url, sum)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// clusterClient is a device client of a ring whose metadata server
// hands out node 0.
func clusterClient(t *testing.T, nodes []*clusterNode, meta *Metadata, parallel int) *Client {
	t.Helper()
	metaSrv := httptest.NewServer(meta.Handler())
	t.Cleanup(metaSrv.Close)
	meta.AddFrontEnd(nodes[0].url)
	return NewClient(ClientConfig{MetaURL: metaSrv.URL, UserID: 1, DeviceID: 1, Device: trace.Android, Parallel: parallel})
}

// TestClusterHashesOncePerCluster pins the server's MD5 passes for a
// replicated 4 MB store on a 3-node ring, N = 3. Once the peers have
// proven each other's stamps, the ingress that took the bytes from the
// client hashes them and the two other owners check their replica
// batches by CRC alone: one pass per cluster. Where the callback is
// refused, every owner hashes — one pass per node, as before peers
// authenticated — and the store is still acknowledged.
func TestClusterHashesOncePerCluster(t *testing.T) {
	const size = 4 << 20
	clientPasses := int64(2 * size)
	for _, tc := range []struct {
		name   string
		refuse bool
		passes int64
	}{
		{"vouched", false, 1 * size},
		{"vouch-refused", true, 3 * size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, meta := newTestCluster(t, 3, 3, 2)
			if tc.refuse {
				nodes[0].handler.set(refuseVouch(nodes[0].fe))
			} else {
				vouchAll(t, nodes)
			}
			client := clusterClient(t, nodes, meta, 2)
			data := chunkedData(t, 3, size)

			before := hashPasses.Load()
			if _, err := client.StoreFile("a.bin", data); err != nil {
				t.Fatal(err)
			}
			sums := SplitSums(data) // (test-side hashing, subtracted below)
			awaitReplicas(t, nodes, sums)
			if got := hashPasses.Load() - before - clientPasses - size; got != tc.passes {
				t.Fatalf("3 nodes hashed %d bytes for a %d-byte store, want %d", got, size, tc.passes)
			}
			if tc.refuse {
				for _, nd := range nodes[1:] {
					if tok := provenToken(nd, nodes[0].url); tok != "" {
						t.Fatalf("%s cached a token for %s through a refused callback", nd.url, nodes[0].url)
					}
				}
			}
		})
	}
}

// TestClusterPeerStampForgeryRefused: the CRC-only path is closed to
// all but proven ring peers. Every node of a ring whose peers have all
// proven each other is sent a replica batch holding a frame whose CRC
// is valid but whose header names a digest its bytes do not hash to:
// with no stamp (a client setting X-MCS-Replica), with a ring member's
// URL and a guessed token, with the URL of a non-member that confirms
// every token, and with the receiver's own stamp. Each is sent twice,
// the second time after any callback the first started has finished;
// both are refused with bad_digest and no node holds either digest.
// The forgeries also leave every proven token in place. A ring
// member's real stamp carrying the same frame is stored on its CRC —
// the trust the ring extends to its members.
func TestClusterPeerStampForgeryRefused(t *testing.T) {
	nodes, _ := newTestCluster(t, 3, 3, 2)
	vouchAll(t, nodes)
	rogue := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent) // "yes, that is my token"
	}))
	defer rogue.Close()
	seed := uint64(0)
	forged := func() (body []byte, claimed, actual Sum) {
		seed++
		_, data := replChunk(6000+seed, 5000)
		frame, claimed := corruptFrame("wrong-digest", data)
		return binBatch(frame), claimed, SumBytes(data)
	}
	send := func(t *testing.T, to *clusterNode, body []byte, stamp string) error {
		hdr := http.Header{}
		hdr.Set(ReplicaHeader, "1")
		if stamp != "" {
			hdr.Set(PeerHeader, stamp)
		}
		return doChunkReqHeader(t, http.MethodPost, to.url+"/v1/bin/put", body, hdr)
	}
	for _, tc := range []struct {
		name  string
		stamp func(to, other *clusterNode) string
	}{
		{"client-replica-header", func(_, _ *clusterNode) string { return "" }},
		{"guessed-token", func(_, other *clusterNode) string { return other.url + " " + strings.Repeat("0f", tokenBytes) }},
		{"non-member", func(_, _ *clusterNode) string { return rogue.URL + " " + strings.Repeat("0f", tokenBytes) }},
		{"self", func(to, _ *clusterNode) string { return to.rs.stamp }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, to := range nodes {
				for try := 0; try < 2; try++ {
					body, claimed, actual := forged()
					err := send(t, to, body, tc.stamp(to, nodes[(i+1)%len(nodes)]))
					var ae *APIError
					if !errors.As(err, &ae) || ae.Code != CodeBadDigest || ae.Status != http.StatusBadRequest {
						t.Fatalf("%s, try %d: got %v, want a 400 bad_digest envelope", to.url, try, err)
					}
					to.rs.auth.wg.Wait() // the callback this stamp started, if any
					for _, nd := range nodes {
						if nd.local.Has(claimed) || nd.local.Has(actual) {
							t.Fatalf("%s holds the forged frame sent to %s", nd.url, to.url)
						}
					}
				}
			}
		})
	}
	for _, nd := range nodes {
		for _, peer := range nodes {
			if peer != nd && provenToken(nd, peer.url) != peer.rs.auth.token {
				t.Fatalf("%s lost %s's proven token to the forgeries", nd.url, peer.url)
			}
		}
	}

	body, claimed, _ := forged()
	if err := send(t, nodes[0], body, nodes[1].rs.stamp); err != nil {
		t.Fatalf("a member's stamp: %v", err)
	}
	if !nodes[0].local.Has(claimed) {
		t.Fatal("a member's CRC-valid frame was not stored")
	}
}

// TestClusterVouchEndpoint: the callback answers 204 for the node's
// own token and 403 for anything else, and no answer carries the
// token. A restarted peer — same ring URL, new token — has its first
// replica batch hashed by every owner, with no failed put, until its
// peers have proven the new token; its old token is trusted no more.
func TestClusterVouchEndpoint(t *testing.T) {
	nodes, meta := newTestCluster(t, 3, 3, 2)
	tok := nodes[0].rs.auth.token
	for _, tc := range []struct {
		method, body string
		status       int
	}{
		{http.MethodPost, tok, http.StatusNoContent},
		{http.MethodPost, strings.Repeat("0f", tokenBytes), http.StatusForbidden},
		{http.MethodPost, tok + "0", http.StatusForbidden},
		{http.MethodPost, tok[1:], http.StatusForbidden},
		{http.MethodPost, "", http.StatusForbidden},
		{http.MethodGet, "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, nodes[0].url+"/v1/cluster/vouch", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %.8q: status %d, want %d", tc.method, tc.body, resp.StatusCode, tc.status)
		}
		var hdr strings.Builder
		resp.Header.Write(&hdr)
		if strings.Contains(string(got), tok) || strings.Contains(hdr.String(), tok) {
			t.Fatalf("%s %.8q: the answer carries the token", tc.method, tc.body)
		}
	}
	// A node with no ring has no token to confirm.
	single := httptest.NewServer(NewFrontEnd(FrontEndConfig{Store: NewMemStore(), Meta: NewMetadata()}).Handler())
	defer single.Close()
	resp, err := http.Post(single.URL+"/v1/cluster/vouch", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("single node: status %d, want 403", resp.StatusCode)
	}

	vouchAll(t, nodes)
	oldStamp := nodes[0].rs.stamp
	peers := make([]string, len(nodes))
	for i, nd := range nodes {
		peers[i] = nd.url
	}
	rs, err := NewReplicatedStore(ReplicatedConfig{
		Self: nodes[0].url, Peers: peers, Replicas: 3, WriteQuorum: 2, Local: nodes[0].local,
		Health: cluster.NewHealth(1, 50*time.Millisecond), RepairEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	nodes[0].rs = rs
	nodes[0].fe = NewFrontEnd(FrontEndConfig{Store: rs, Meta: meta}).Handler()
	nodes[0].up()
	if rs.auth.token == tok {
		t.Fatal("a restarted node minted the same token")
	}

	client := clusterClient(t, nodes, meta, 1)
	store := func(seed uint64, passes int64) {
		t.Helper()
		data := chunkedData(t, seed, ChunkSize)
		before := hashPasses.Load()
		if _, err := client.StoreFile("r.bin", data); err != nil {
			t.Fatalf("store after the restart: %v", err)
		}
		awaitReplicas(t, nodes, []Sum{SumBytes(data)})
		// The client hashes a one-chunk file once (its digest is the
		// chunk's), and so does awaitReplicas' SumBytes.
		if got := hashPasses.Load() - before - 2*ChunkSize; got != passes {
			t.Fatalf("server hashed %d bytes of a one-chunk store, want %d", got, passes)
		}
	}
	store(41, 3*ChunkSize) // the new stamp is not proven yet: every owner hashes
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes[1:] {
		for provenToken(nd, nodes[0].url) != rs.auth.token {
			if time.Now().After(deadline) {
				t.Fatalf("%s never proved the restarted node's new token", nd.url)
			}
			time.Sleep(time.Millisecond)
		}
		if nd.rs.trustedPeer(oldStamp) {
			t.Fatalf("%s still trusts the old token", nd.url)
		}
	}
	store(42, 1*ChunkSize)
}
