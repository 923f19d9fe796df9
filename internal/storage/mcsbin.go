package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sync"
)

// mcsbin/1 is the negotiated binary chunk dialect for the hot transfer
// path. A frame is exactly a DiskStore record:
//
//	sum[16] | len uint32 LE | crc32 uint32 LE | payload
//
// with the CRC covering the first 20 header bytes and the payload —
// so a disk-resident chunk's response IS the raw record region of the
// segment file, streamed without re-encoding or checksum recompute,
// and an uploaded frame can be verified with the same single pass the
// recovery scan uses. A frame whose len field is the tombstone
// sentinel (^uint32(0)) carries no payload and means "not found" in a
// batched GET response.
//
// Two endpoints speak it, both POST (the batch body is the request):
//
//	POST /v1/bin/get   body: count uint32 LE, then count×16-byte sums.
//	                   response: count frames, in request order,
//	                   not-found frames for absent chunks.
//	POST /v1/bin/put   body: count uint32 LE, then count frames.
//	                   query ?url= ties the chunks to a pending upload
//	                   exactly like PUT /v1/chunk/{md5}. Response is
//	                   the JSON FileOpResponse.
//
// Negotiation rides next to the existing X-MCS-API probe: capable
// servers stamp every response with "X-MCS-Bin: mcsbin/1", and a
// client only sends binary requests to a host it has seen the stamp
// from. Errors are rejected before any response byte is written and
// use the standard typed /v1 envelope, so the JSON/HTTP fallback is
// graceful in both directions.

// BinHeader is the binary-dialect capability header.
const BinHeader = "X-MCS-Bin"

// BinV1 is the current binary dialect tag.
const BinV1 = "mcsbin/1"

// The file retrieval operation can ride a binary batch. A server whose
// /v1/bin/get accepts it stamps every response with
// "X-MCS-Bin-Ops: file-retrieve" next to the X-MCS-Bin stamp; a client
// that has seen that stamp from the host of a file's first chunk sends
// the operation as "X-MCS-File-Retrieve: <file md5>" on the batch that
// carries chunk 0, instead of a separate POST /v1/op/retrieve. The
// server writes the operation's Table 1 record before the batch's 200.
const (
	BinOpsHeader       = "X-MCS-Bin-Ops"
	BinOpFileRetrieve  = "file-retrieve"
	FileRetrieveHeader = "X-MCS-File-Retrieve"
)

// binContentType labels binary request/response bodies.
const binContentType = "application/x-mcsbin1"

// binMaxBatch caps the frames one binary request may carry; it bounds
// the per-request pin count on the serving side and the assembled
// request body on the sending side (16 × 512 KB = 8 MB worst case).
const binMaxBatch = 16

// binFrame is one decoded frame. payload aliases the scratch buffer
// handed to readBinFrame, valid until the buffer's next use.
type binFrame struct {
	frame
	sum      Sum
	got      Sum // MD5 of payload, from the streaming read if asked for, or sumFrames
	notFound bool
}

// verified returns the frame as an ingress accepts it: a data frame
// whose payload hashes to the digest its header names (readBinFrame
// already checked the CRC). crcOnly accepts a data frame on its CRC
// alone; only a replica batch from an authenticated ring peer, which
// MD5-verified the frame at its own ingress, is read that way.
func (f *binFrame) verified(crcOnly bool) (*frame, error) {
	if f.notFound {
		return nil, fmt.Errorf("storage: mcsbin: not-found frame where a data frame was expected")
	}
	if !crcOnly && f.got != f.sum {
		return nil, fmt.Errorf("%w: frame payload hashes to %s, header says %s", ErrBadDigest, f.got, f.sum)
	}
	return &f.frame, nil
}

// readBinFrame decodes one frame from r into buf. The payload CRC —
// and, with hashMD5, the payload MD5 into f.got — is folded into the
// read loop: one pass over the bytes as they arrive, no re-scan. An
// ingress, which is about to vouch for the frame's digest, asks for
// the MD5 of a lone frame; a larger batch is hashed once it is all in
// (sumFrames), and the client's read path checks only the CRC here
// and hashes the bytes once, into the file digest (see retrieval). Every
// malformed input fails closed with an error wrapping a package
// sentinel, so the server side maps it onto the typed envelope
// (truncation → bad_request, oversized → too_large, checksum mismatch
// → bad_digest) and the client side refuses the bytes.
func readBinFrame(r io.Reader, buf []byte, hashMD5 bool) (binFrame, error) {
	var f binFrame
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		return f, fmt.Errorf("storage: mcsbin: truncated frame header: %w", io.ErrUnexpectedEOF)
	}
	f.sum = f.digest()
	length := binary.LittleEndian.Uint32(f.hdr[16:20])
	want := binary.LittleEndian.Uint32(f.hdr[20:24])
	crc := crc32.ChecksumIEEE(f.hdr[:20])
	if length == tombstoneLen {
		if crc != want {
			return f, fmt.Errorf("%w: mcsbin not-found frame checksum mismatch", ErrBadDigest)
		}
		f.notFound = true
		return f, nil
	}
	if length > ChunkSize || int(length) > len(buf) {
		return f, fmt.Errorf("%w: mcsbin frame declares %d payload bytes", ErrTooLarge, length)
	}
	var n int
	if hashMD5 {
		n, f.got, _ = readHashed(r, buf[:length], &crc)
	} else {
		n, _ = readChecked(r, buf[:length], &crc, nil)
	}
	if n < int(length) {
		return f, fmt.Errorf("storage: mcsbin: truncated frame payload (%d of %d bytes): %w", n, length, io.ErrUnexpectedEOF)
	}
	if crc != want {
		return f, fmt.Errorf("%w: mcsbin frame checksum mismatch for %s", ErrBadDigest, f.sum)
	}
	f.payload = buf[:length]
	return f, nil
}

// sumFrames computes got for a batch's frames, which readBinFrame read
// without MD5: the full-size ones side by side in one lane pass.
func sumFrames(frames []binFrame) {
	payloads := make([][]byte, len(frames))
	sums := make([]Sum, len(frames))
	for i := range frames {
		payloads[i] = frames[i].payload
	}
	sumChunks(sums, payloads)
	for i := range frames {
		frames[i].got = sums[i]
	}
}

// appendBinCount appends the u32 batch-count prefix.
func appendBinCount(dst []byte, n int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(n))
	return append(dst, b[:]...)
}

// appendBinNotFound appends a not-found frame for sum.
func appendBinNotFound(dst []byte, sum Sum) []byte {
	var hdr [recHeaderSize]byte
	encodeHeader(hdr[:], sum, tombstoneLen, nil)
	return append(dst, hdr[:]...)
}

// binNotFoundFrame renders a standalone not-found frame.
func binNotFoundFrame(sum Sum) []byte { return appendBinNotFound(nil, sum) }

// encodeBinGet builds a /v1/bin/get request body.
func encodeBinGet(sums []Sum) []byte {
	out := make([]byte, 4, 4+16*len(sums))
	binary.LittleEndian.PutUint32(out, uint32(len(sums)))
	for _, s := range sums {
		out = append(out, s[:]...)
	}
	return out
}

// decodeBinCount reads and bounds a batch count prefix.
func decodeBinCount(r io.Reader, max int) (int, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("storage: mcsbin: truncated batch header: %w", io.ErrUnexpectedEOF)
	}
	n := binary.LittleEndian.Uint32(b[:])
	if n == 0 {
		return 0, fmt.Errorf("storage: mcsbin: empty batch")
	}
	if int64(n) > int64(max) {
		return 0, fmt.Errorf("%w: mcsbin batch of %d exceeds %d", ErrTooLarge, n, max)
	}
	return int(n), nil
}

// decodeBinGetRequest reads a /v1/bin/get body.
func decodeBinGetRequest(r io.Reader, max int) ([]Sum, error) {
	n, err := decodeBinCount(r, max)
	if err != nil {
		return nil, err
	}
	sums := make([]Sum, n)
	for i := range sums {
		if _, err := io.ReadFull(r, sums[i][:]); err != nil {
			return nil, fmt.Errorf("storage: mcsbin: truncated digest list: %w", io.ErrUnexpectedEOF)
		}
	}
	return sums, nil
}

// binAdvertised reports whether a response came from a binary-capable
// server.
func binAdvertised(h http.Header) bool { return h.Get(BinHeader) == BinV1 }

// --- replica transfers (replication fan-out, repair, rebalancer) -------

// replicaReq builds a cluster-internal request: it acts on the target
// node's local store and is never forwarded again.
func replicaReq(method, node, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, node+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(APIHeader, APIV1)
	req.Header.Set(ReplicaHeader, "1")
	return req, nil
}

// replicaGetReq builds the request that reads one chunk from node's
// local store, over mcsbin/1 when the node speaks it.
func replicaGetReq(node string, sum Sum, bin bool) (*http.Request, error) {
	if !bin {
		return replicaReq(http.MethodGet, node, "/v1/chunk/"+sum.String(), nil)
	}
	req, err := replicaReq(http.MethodPost, node, "/v1/bin/get", bytes.NewReader(encodeBinGet([]Sum{sum})))
	if err == nil {
		req.Header.Set("Content-Type", binContentType)
	}
	return req, err
}

// replicaChunkReq builds the JSON-dialect request that writes one
// verified frame to node's local store; cancelling ctx cuts it short.
func replicaChunkReq(ctx context.Context, node string, f *frame) (*http.Request, error) {
	req, err := replicaReq(http.MethodPut, node, "/v1/chunk/"+f.digest().String(), bytes.NewReader(f.payload))
	if err != nil {
		return nil, err
	}
	return req.WithContext(ctx), nil
}

// replicaPutReq builds the mcsbin/1 request that writes q's frames to
// node's local store. The body streams as the frames are handed over —
// count prefix, then each carried header and its payload slice as they
// stand — so every owner of a chunk shares one payload buffer, nobody
// re-encodes or re-checksums it, and the owner starts writing while
// later frames are still arriving here. The receiver is its own
// ingress and verifies once; it answers for the whole batch after its
// own group fsync. Cancelling ctx cuts the request short. The queue
// keeps every frame it was handed, so the transport can replay the body
// from the start on a fresh connection. A non-empty stamp is sent as
// the PeerHeader (see vouch.go).
func replicaPutReq(ctx context.Context, node string, q *frameQueue, stamp string) (*http.Request, error) {
	body := func() (io.ReadCloser, error) {
		return io.NopCloser(&frameReader{q: q, parts: [][]byte{appendBinCount(nil, q.count)}}), nil
	}
	rc, _ := body()
	req, err := replicaReq(http.MethodPost, node, "/v1/bin/put", rc)
	if err != nil {
		return nil, err
	}
	req.GetBody = body
	req.Header.Set("Content-Type", binContentType)
	if stamp != "" {
		req.Header.Set(PeerHeader, stamp)
	}
	return req.WithContext(ctx), nil
}

// frameQueue is the frames one owner receives from one request, in
// the order they are handed over. count, the length the owner is
// promised, is fixed before anyone reads the queue; at blocks until
// the frame asked for has been pushed, or the queue is cut.
type frameQueue struct {
	count int

	mu     sync.Mutex
	cond   sync.Cond
	frames []*frame
	err    error
}

func newFrameQueue(frames ...*frame) *frameQueue {
	q := &frameQueue{count: len(frames), frames: frames}
	q.cond.L = &q.mu
	return q
}

func (q *frameQueue) push(f *frame) {
	q.mu.Lock()
	q.frames = append(q.frames, f)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// cut fails every reader still waiting for a frame.
func (q *frameQueue) cut(err error) {
	q.mu.Lock()
	q.err = err
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *frameQueue) at(k int) (*frame, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for k >= len(q.frames) && q.err == nil {
		q.cond.Wait()
	}
	if q.err != nil {
		return nil, q.err
	}
	return q.frames[k], nil
}

// frameReader reads a frameQueue as a /v1/bin/put body.
type frameReader struct {
	q     *frameQueue
	next  int      // next frame to take from the queue
	parts [][]byte // bytes taken but not yet read
}

// take moves the next frame into parts, waiting for it to be pushed;
// io.EOF after the last.
func (r *frameReader) take() error {
	if r.next == r.q.count {
		return io.EOF
	}
	f, err := r.q.at(r.next)
	if err != nil {
		return err
	}
	r.next++
	r.parts = [][]byte{f.hdr[:], f.payload}
	return nil
}

func (r *frameReader) Read(p []byte) (int, error) {
	for len(r.parts) == 0 {
		if err := r.take(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.parts[0])
	if r.parts[0] = r.parts[0][n:]; len(r.parts[0]) == 0 {
		r.parts = r.parts[1:]
	}
	return n, nil
}

// WriteTo hands w each header and each payload whole, as they are
// pushed: a chunked request body then writes a frame in two calls
// instead of one per copy buffer.
func (r *frameReader) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for {
		for len(r.parts) > 0 {
			m, err := w.Write(r.parts[0])
			n += int64(m)
			if err != nil {
				return n, err
			}
			r.parts = r.parts[1:]
		}
		if err := r.take(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
	}
}

// readReplicaFrame is the ingress for the response to a replicaGetReq:
// the bytes are verified once, as they come off the socket — frame CRC
// and MD5 over mcsbin/1 (the CRC travels from the sender's segment
// file, so disk corruption on the far side fails here instead of
// propagating), MD5 over JSON — and returned as a verified frame with
// an owned copy of the payload.
func readReplicaFrame(resp *http.Response, sum Sum, bin bool) (*frame, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	scratch := getChunkBuf()
	defer putChunkBuf(scratch)
	if !bin {
		fr, err := ingestBody(resp.Body, *scratch, sum)
		if err != nil {
			return nil, err
		}
		return fr.own(), nil
	}
	bf, err := readBinFrame(resp.Body, *scratch, true)
	if err != nil {
		return nil, err
	}
	if bf.notFound {
		return nil, ErrNotFound
	}
	if bf.sum != sum || bf.got != sum {
		return nil, fmt.Errorf("%w: mcsbin frame digest mismatch for %s", ErrBadDigest, sum)
	}
	return bf.own(), nil
}
