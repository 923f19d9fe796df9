package storage

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Ring peers authenticate their replica hops so that a receiver can
// skip re-hashing bytes the sender already verified. Each
// ReplicatedStore mints a random token at start and stamps every
// mcsbin/1 replica batch it sends with "X-MCS-Peer: <self URL> <token>".
// A receiver trusts the stamp only once the named ring member has
// confirmed the token over a callback to its ring address
// (POST /v1/cluster/vouch); until then — and for any stamp that names
// a non-member, names itself, or carries another token — the frames are
// MD5-verified exactly as client uploads are. Nothing is configured:
// the ring's static membership is the list of addresses a token can be
// proven by, and a restarted peer's new token is simply proven again.

// PeerHeader carries a ring peer's claimed identity on its replica
// batches: its ring URL and its token, separated by one space.
const PeerHeader = "X-MCS-Peer"

const (
	// vouchTimeout bounds one vouch callback.
	vouchTimeout = 2 * time.Second
	// vouchBackoff spaces the callbacks to a peer whose last vouch
	// failed or was refused, so stamps a client forges cost the named
	// peer at most one callback per interval.
	vouchBackoff = time.Second
	// tokenBytes is the token's entropy.
	tokenBytes = 16
)

// peerAuth is a ReplicatedStore's side of peer authentication: its own
// token, and the tokens ring peers have proven.
type peerAuth struct {
	token  string
	ctx    context.Context // the callbacks'; cancelled at close
	cancel context.CancelFunc
	wg     sync.WaitGroup // running callbacks

	mu       sync.Mutex
	proven   map[string]string    // peer URL -> token the peer confirmed
	inflight map[string]bool      // peer URL -> vouch callback running
	retryAt  map[string]time.Time // peer URL -> no callback before
	closed   bool
}

func newPeerAuth() (*peerAuth, error) {
	var b [tokenBytes]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("storage: minting the peer token: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &peerAuth{
		token:    hex.EncodeToString(b[:]),
		ctx:      ctx,
		cancel:   cancel,
		proven:   make(map[string]string),
		inflight: make(map[string]bool),
		retryAt:  make(map[string]time.Time),
	}, nil
}

// ownsToken reports whether tok is this node's token.
func (rs *ReplicatedStore) ownsToken(tok string) bool {
	return subtle.ConstantTimeCompare([]byte(tok), []byte(rs.auth.token)) == 1
}

// trustedPeer reports whether stamp, a replica batch's PeerHeader,
// names another ring member by the token that member has proven. A
// stamp naming another member by a token not (yet) proven starts a
// background vouch callback to that member and is not trusted: the
// batch is hashed, never delayed or refused on the stamp's account.
func (rs *ReplicatedStore) trustedPeer(stamp string) bool {
	peer, tok, ok := strings.Cut(stamp, " ")
	if !ok || tok == "" || peer == rs.self || !rs.ring.Contains(peer) {
		return false
	}
	a := rs.auth
	a.mu.Lock()
	defer a.mu.Unlock()
	if subtle.ConstantTimeCompare([]byte(tok), []byte(a.proven[peer])) == 1 {
		return true
	}
	if a.closed || a.inflight[peer] || time.Now().Before(a.retryAt[peer]) {
		return false
	}
	a.inflight[peer] = true
	a.wg.Add(1)
	go rs.vouch(peer, tok)
	return false
}

// vouch asks peer whether tok is its token and caches the token when
// the peer confirms it.
func (rs *ReplicatedStore) vouch(peer, tok string) {
	a := rs.auth
	defer a.wg.Done()
	ctx, cancel := context.WithTimeout(a.ctx, vouchTimeout)
	defer cancel()
	ok := false
	if req, err := replicaReq(http.MethodPost, peer, "/v1/cluster/vouch", strings.NewReader(tok)); err == nil {
		req.Header.Set("Content-Type", "text/plain")
		if resp, err := rs.do(peer, req.WithContext(ctx)); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusNoContent
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.inflight, peer)
	if ok {
		a.proven[peer] = tok
		delete(a.retryAt, peer)
	} else {
		a.retryAt[peer] = time.Now().Add(vouchBackoff)
	}
}

// vouchedPeers counts the ring peers with a proven token.
func (rs *ReplicatedStore) vouchedPeers() int {
	rs.auth.mu.Lock()
	defer rs.auth.mu.Unlock()
	return len(rs.auth.proven)
}

// close stops new vouch callbacks, cuts the running ones short and
// waits for them.
func (a *peerAuth) close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.cancel()
	a.wg.Wait()
}

// handleClusterVouch answers a ring peer's vouch callback: 204 when the
// request body is this node's peer token, 403 for anything else. The
// token itself is never returned.
func (f *FrontEnd) handleClusterVouch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("storage: method %s not allowed", r.Method))
		return
	}
	tok, err := io.ReadAll(io.LimitReader(r.Body, int64(2*hex.EncodedLen(tokenBytes))))
	if err != nil {
		writeAPIError(w, r, http.StatusBadRequest, fmt.Errorf("storage: reading vouch body: %w", err))
		return
	}
	if f.peers == nil || !f.peers.ownsToken(string(tok)) {
		writeAPIError(w, r, http.StatusForbidden, fmt.Errorf("storage: not this node's peer token"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
