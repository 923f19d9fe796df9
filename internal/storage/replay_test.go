package storage

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"mcloud/internal/randx"
	"mcloud/internal/session"
)

// TestVirtualTimeReplay replays a scripted two-session day through the
// live HTTP service in compressed wall time, with the client stamping
// each request with the virtual clock. The front-end logs must carry
// the virtual timestamps, and session identification over the captured
// logs must recover the scripted session structure exactly.
func TestVirtualTimeReplay(t *testing.T) {
	client, col, _, _, cleanup := newTestService(t)
	defer cleanup()

	clock := time.Date(2015, 8, 4, 9, 0, 0, 0, time.UTC)
	client = reconfigure(client, func(cfg *ClientConfig) { cfg.SimClock = func() time.Time { return clock } })

	src := randx.New(91)
	mkData := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(src.Uint64())
		}
		return b
	}

	// Session 1: two files stored 30 virtual seconds apart.
	var urls []string
	for i := 0; i < 2; i++ {
		res, err := client.StoreFile(fmt.Sprintf("a%d.jpg", i), mkData(600<<10))
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, res.URL)
		clock = clock.Add(30 * time.Second)
	}

	// Two virtual hours pass: next activity is a new session.
	clock = clock.Add(2 * time.Hour)

	// Session 2: retrieve the first upload.
	if _, err := client.RetrieveFile(urls[0]); err != nil {
		t.Fatal(err)
	}
	// A front-end logs a chunk read after its last byte is on the wire,
	// which can be after the client returned with it: closing the servers waits for
	// the handlers.
	cleanup()

	logs := col.Logs()
	for _, l := range logs {
		if l.Time.Before(time.Date(2015, 8, 4, 0, 0, 0, 0, time.UTC)) {
			t.Fatalf("log carries wall time, not virtual time: %v", l.Time)
		}
	}

	id := session.NewIdentifier(time.Hour)
	for _, l := range logs {
		id.Add(l)
	}
	sessions := id.Sessions()
	if len(sessions) != 2 {
		t.Fatalf("identified %d sessions, want 2", len(sessions))
	}
	if sessions[0].Class() != session.StoreOnly || sessions[0].FileOps != 2 {
		t.Errorf("session 1 = %v with %d ops, want store-only with 2", sessions[0].Class(), sessions[0].FileOps)
	}
	if sessions[1].Class() != session.RetrieveOnly || sessions[1].FileOps != 1 {
		t.Errorf("session 2 = %v with %d ops, want retrieve-only with 1", sessions[1].Class(), sessions[1].FileOps)
	}
	// Chunk accounting: 2 x 600 KB up (2 chunks each), 1 x 600 KB down.
	if sessions[0].StoreVol != 2*600<<10 {
		t.Errorf("session 1 volume = %d", sessions[0].StoreVol)
	}
	if sessions[1].RetrVol != 600<<10 {
		t.Errorf("session 2 volume = %d", sessions[1].RetrVol)
	}
}

// TestSimTimeHeaderIgnoredWhenAbsent keeps the wall-clock path intact.
func TestSimTimeHeaderIgnoredWhenAbsent(t *testing.T) {
	client, col, _, _, cleanup := newTestService(t)
	defer cleanup()
	before := time.Now()
	if _, err := client.StoreFile("x.bin", []byte("wall clock")); err != nil {
		t.Fatal(err)
	}
	for _, l := range col.Logs() {
		if l.Time.Before(before.Add(-time.Minute)) {
			t.Errorf("wall-clock log in the past: %v", l.Time)
		}
	}
}

// TestSimTimeMalformedHeader: the server-side parser must treat
// garbage as "absent" and fall back to the wall clock.
func TestSimTimeMalformedHeader(t *testing.T) {
	req, err := http.NewRequest(http.MethodGet, "http://example/chunk/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := simTime(req); !got.IsZero() {
		t.Errorf("missing header parsed to %v", got)
	}
	req.Header.Set("X-Sim-Time", "not-a-number")
	if got := simTime(req); !got.IsZero() {
		t.Errorf("malformed header parsed to %v", got)
	}
	req.Header.Set("X-Sim-Time", "1438678201000000000")
	want := time.Unix(0, 1438678201000000000).UTC()
	if got := simTime(req); !got.Equal(want) {
		t.Errorf("valid header parsed to %v, want %v", got, want)
	}
}
