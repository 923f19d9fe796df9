package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/trace"
)

func TestBinFrameRoundTrip(t *testing.T) {
	data := testChunk(91, 3)
	sum := SumBytes(data)
	frame := appendBinFrame(nil, sum, data)
	buf := make([]byte, ChunkSize)

	f, err := readBinFrame(bytes.NewReader(frame), buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.notFound {
		t.Fatal("data frame decoded as not-found")
	}
	if f.sum != sum || f.got != sum {
		t.Fatalf("digest mismatch: header %s, computed %s, want %s", f.sum, f.got, sum)
	}
	if !bytes.Equal(f.payload, data) {
		t.Fatal("payload mismatch after round trip")
	}

	// Without the MD5 the frame decodes the same, CRC-checked, and no
	// byte is hashed.
	before := hashPasses.Load()
	f, err = readBinFrame(bytes.NewReader(frame), buf, false)
	if err != nil || f.sum != sum || f.got != (Sum{}) || !bytes.Equal(f.payload, data) {
		t.Fatalf("CRC-only decode: %v, got %s", err, f.got)
	}
	if n := hashPasses.Load() - before; n != 0 {
		t.Fatalf("CRC-only decode hashed %d bytes", n)
	}

	nf := binNotFoundFrame(sum)
	f, err = readBinFrame(bytes.NewReader(nf), buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if !f.notFound || f.sum != sum {
		t.Fatal("not-found frame mis-decoded")
	}
}

// TestBinFrameFailsClosed covers the decoder's rejection paths: every
// malformed input must produce a typed error before any payload is
// accepted.
func TestBinFrameFailsClosed(t *testing.T) {
	data := testChunk(92, 1)
	sum := SumBytes(data)
	frame := appendBinFrame(nil, sum, data)
	buf := make([]byte, ChunkSize)

	// The read path's CRC-only decode fails closed exactly like the
	// ingress's CRC+MD5 one.
	for _, hashMD5 := range []bool{true, false} {
		if _, err := readBinFrame(bytes.NewReader(frame[:10]), buf, hashMD5); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated header: err = %v, want unexpected EOF", err)
		}
		if _, err := readBinFrame(bytes.NewReader(frame[:len(frame)-5]), buf, hashMD5); err == nil {
			t.Fatal("truncated payload decoded without error")
		}
		bad := append([]byte(nil), frame...)
		bad[recHeaderSize] ^= 0x40
		if _, err := readBinFrame(bytes.NewReader(bad), buf, hashMD5); !errors.Is(err, ErrBadDigest) {
			t.Fatalf("corrupt payload: err = %v, want bad digest", err)
		}
		big := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(big[16:20], ChunkSize+1)
		if _, err := readBinFrame(bytes.NewReader(big), buf, hashMD5); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("oversized frame: err = %v, want too large", err)
		}
		// A corrupted not-found frame (bad header CRC) is rejected too.
		nf := binNotFoundFrame(sum)
		nf[0] ^= 0x01
		if _, err := readBinFrame(bytes.NewReader(nf), buf, hashMD5); err == nil {
			t.Fatal("corrupt not-found frame accepted")
		}
	}

	if _, err := decodeBinCount(bytes.NewReader([]byte{0, 0, 0, 0}), binMaxBatch); err == nil {
		t.Fatal("empty batch accepted")
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], binMaxBatch+1)
	if _, err := decodeBinCount(bytes.NewReader(cnt[:]), binMaxBatch); !errors.Is(err, ErrTooLarge) {
		t.Fatal("oversized batch accepted")
	}
}

// FuzzBinFrame feeds arbitrary bytes to the frame decoder: it must
// never panic, and any frame it does accept must be internally
// consistent (CRC passed during the read, MD5 recomputed over the
// payload).
func FuzzBinFrame(f *testing.F) {
	data := testChunk(93, 2)
	if len(data) > 300 {
		data = data[:300]
	}
	sum := SumBytes(data)
	f.Add(appendBinFrame(nil, sum, data))
	f.Add(binNotFoundFrame(sum))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, recHeaderSize))
	f.Add(bytes.Repeat([]byte{0x00}, recHeaderSize+64))
	f.Fuzz(func(t *testing.T, b []byte) {
		buf := make([]byte, 4096)
		fr, err := readBinFrame(bytes.NewReader(b), buf, true)
		if err != nil {
			return // fail-closed: malformed input errors, never panics
		}
		if fr.notFound {
			return
		}
		if SumBytes(fr.payload) != fr.got {
			t.Fatalf("accepted frame has inconsistent MD5: %s vs %s", SumBytes(fr.payload), fr.got)
		}
	})
}

// TestBinNegotiation runs one client against a binary-capable and a
// JSON-pinned front-end: transfers succeed on both, and the binary
// endpoints only see traffic when the server advertises them.
func TestBinNegotiation(t *testing.T) {
	newSvc := func(disable bool) (*Client, *atomic.Int64, func()) {
		store := NewMemStore()
		meta := NewMetadata()
		fe := NewFrontEnd(FrontEndConfig{Store: store, Meta: meta, DisableBin: disable})
		var binHits atomic.Int64
		h := fe.Handler()
		feSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/bin/") {
				binHits.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		metaSrv := httptest.NewServer(meta.Handler())
		meta.AddFrontEnd(feSrv.URL)
		pol := fastRetry
		client := &Client{MetaURL: metaSrv.URL, UserID: 9, DeviceID: 2, Device: trace.Android, Retry: &pol, Parallel: 4}
		return client, &binHits, func() { feSrv.Close(); metaSrv.Close() }
	}

	roundTrip := func(t *testing.T, client *Client, seed uint64) {
		t.Helper()
		data := chunkedData(t, seed, 3*ChunkSize+500) // 4 chunks
		res, err := client.StoreFile("n.bin", data)
		if err != nil {
			t.Fatal(err)
		}
		if res.ChunksSent != 4 {
			t.Fatalf("chunks sent = %d, want 4", res.ChunksSent)
		}
		got, err := client.RetrieveFile(res.URL)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("retrieved content differs")
		}
	}

	t.Run("binary", func(t *testing.T) {
		client, hits, cleanup := newSvc(false)
		defer cleanup()
		roundTrip(t, client, 21)
		if hits.Load() == 0 {
			t.Fatal("binary-capable host saw no /v1/bin traffic")
		}
	})
	t.Run("json-pinned-server", func(t *testing.T) {
		client, hits, cleanup := newSvc(true)
		defer cleanup()
		roundTrip(t, client, 22)
		if hits.Load() != 0 {
			t.Fatalf("JSON-pinned host saw %d /v1/bin requests", hits.Load())
		}
	})
	t.Run("json-pinned-client", func(t *testing.T) {
		client, hits, cleanup := newSvc(false)
		defer cleanup()
		client.DisableBin = true
		roundTrip(t, client, 23)
		if hits.Load() != 0 {
			t.Fatalf("DisableBin client issued %d /v1/bin requests", hits.Load())
		}
	})
}

// TestClusterMixedDialect boots a 3-node ring where one node withholds
// the binary dialect in both directions: replication fan-out, reads,
// and failover must keep working across the dialect boundary with
// nothing lost or corrupted.
func TestClusterMixedDialect(t *testing.T) {
	const n, jsonNode = 3, 1
	nodes := make([]*clusterNode, n)
	peers := make([]string, n)
	for i := range nodes {
		h := &switchHandler{}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		nodes[i] = &clusterNode{url: srv.URL, local: NewMemStore(), handler: h}
		peers[i] = srv.URL
	}
	meta := NewMetadata()
	for i, nd := range nodes {
		rs, err := NewReplicatedStore(ReplicatedConfig{
			Self:        nd.url,
			Peers:       peers,
			Replicas:    3,
			WriteQuorum: 2,
			Local:       nd.local,
			Health:      cluster.NewHealth(1, 50*time.Millisecond),
			RepairEvery: -1,
			DisableBin:  i == jsonNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.rs = rs
		t.Cleanup(func() { rs.Close() })
		fe := NewFrontEnd(FrontEndConfig{Store: rs, Meta: meta, DisableBin: i == jsonNode})
		nd.fe = fe.Handler()
		nd.up()
	}

	// Prime dialect discovery: one JSON round trip per peer pair so
	// every store has seen its peers' response headers.
	warm, warmData := replChunk(100, 8<<10)
	if err := nodes[0].rs.PutCtx(bg, warm, warmData); err != nil {
		t.Fatal(err)
	}

	var sums []Sum
	var payloads [][]byte
	for i := 0; i < 8; i++ {
		sum, data := replChunk(uint64(200+i), 32<<10)
		// Alternate the writing node so fan-out crosses the dialect
		// boundary in both directions (bin node -> JSON node and back).
		if err := nodes[i%n].rs.PutCtx(bg, sum, data); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
		payloads = append(payloads, data)
	}

	// Every owner holds every chunk (W=2 acks may precede the third
	// copy; poll briefly).
	deadline := time.Now().Add(2 * time.Second)
	for {
		missing := 0
		for _, sum := range sums {
			for _, nd := range nodes {
				if !nd.local.Has(sum) {
					missing++
				}
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replica copies still missing across the dialect boundary", missing)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Reads from every node — including remote reads that cross the
	// boundary — return intact bytes.
	for i, sum := range sums {
		for _, nd := range nodes {
			got, err := nd.rs.GetCtx(bg, sum)
			if err != nil {
				t.Fatalf("chunk %d from %s: %v", i, nd.url, err)
			}
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("chunk %d from %s corrupted", i, nd.url)
			}
		}
	}

	// Failover read across the boundary: take a bin node down and read
	// everything through the JSON node.
	nodes[2].down()
	defer nodes[2].up()
	for i, sum := range sums {
		got, err := nodes[jsonNode].rs.GetCtx(bg, sum)
		if err != nil {
			t.Fatalf("failover chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("failover chunk %d corrupted", i)
		}
	}
}

// appendBinFrame is the reference frame encoder: header from
// encodeHeader, payload copied behind it.
func appendBinFrame(dst []byte, sum Sum, payload []byte) []byte {
	var hdr [recHeaderSize]byte
	encodeHeader(hdr[:], sum, uint32(len(payload)), payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}
