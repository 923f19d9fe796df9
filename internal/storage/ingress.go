package storage

import (
	"context"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"mcloud/internal/tracing"
)

// Digest verification is a property of the ingress boundary, not of
// every layer. The places where chunk bytes enter the process — the
// front-end's chunk PUT handlers, a replica read, a rebalance fetch —
// check MD5 and CRC exactly once, in the pass that takes the bytes off
// the socket (a multi-frame bin/put hashes its frames side by side once
// the batch is in, see sumFrames), and the result travels on as a
// verified frame: the
// 24-byte sum|len|crc32 record header plus the payload it was checked
// against, which is both the mcsbin/1 wire frame and the DiskStore
// record. The store stack below carries it verbatim: the proof rides
// the request context (the way spans already do), so it survives any
// wrapper that forwards only PutCtx(ctx, sum, data), and a put that
// arrives without it is verified exactly as if this file did not
// exist.

// frame is one verified chunk in wire/disk form.
type frame struct {
	hdr     [recHeaderSize]byte
	payload []byte
}

// digest is the MD5 the header names.
func (f *frame) digest() (s Sum) {
	copy(s[:], f.hdr[:16])
	return s
}

// sealFrame frames bytes this process already trusts — read back from
// one of its own stores, which verified them on the way in (and, for
// the durable ones, again on the way out) — computing the checksum an
// ingress would have carried.
func sealFrame(sum Sum, data []byte) *frame {
	f := &frame{payload: data}
	encodeHeader(f.hdr[:], sum, uint32(len(data)), data)
	return f
}

// verified is the proof a put's context carries: some ingress checked
// a payload of n bytes against sum. crc is that frame's checksum as
// the sender computed it — carried to disk instead of being
// recomputed, so corruption between ingress and platter fails the
// record's read-back check rather than being blessed by a fresh CRC.
type verified struct {
	sum Sum
	n   int
	crc uint32
}

// verifiedKey is unexported, so only this package can mint proof.
type verifiedKey struct{}

// withVerified attaches proof for a frame an ingress just checked.
func withVerified(ctx context.Context, f *frame) context.Context {
	return context.WithValue(ctx, verifiedKey{}, &verified{
		sum: f.digest(),
		n:   len(f.payload),
		crc: binary.LittleEndian.Uint32(f.hdr[20:24]),
	})
}

// verifyPut is the one place a store decides whether a put still needs
// hashing: proof bound to exactly this digest and length is trusted,
// anything else — no proof, or proof for other arguments — is verified
// here, so Put(wrongSum, data) fails with ErrBadDigest on every path.
func verifyPut(ctx context.Context, sum Sum, data []byte) (*verified, error) {
	if v, _ := ctx.Value(verifiedKey{}).(*verified); v != nil && v.sum == sum && v.n == len(data) {
		return v, nil
	}
	if SumBytes(data) != sum {
		return nil, ErrBadDigest
	}
	return nil, nil
}

// header renders the record header for a put verifyPut accepted,
// reusing the carried CRC when there was proof.
func (v *verified) header(sum Sum, data []byte) (hdr [recHeaderSize]byte) {
	if v == nil {
		encodeHeader(hdr[:], sum, uint32(len(data)), data)
		return hdr
	}
	copy(hdr[:16], sum[:])
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[20:24], v.crc)
	return hdr
}

// hashPasses counts the payload bytes this package has run through
// MD5, so tests can pin how many times a byte is hashed on its way
// through the stack.
var hashPasses atomic.Int64

// md5Pool recycles MD5 states for the streaming verifiers: transfers
// verify a digest per frame, and the pool keeps that from allocating
// a fresh hasher per chunk.
var md5Pool = sync.Pool{New: func() any { return md5.New() }}

// readHashed fills buf from r until buf is full or r is exhausted,
// folding MD5 — and, when crc is non-nil, the running CRC-32 — into
// the read loop: one pass over the bytes as they arrive, no re-scan.
func readHashed(r io.Reader, buf []byte, crc *uint32) (n int, sum Sum, err error) {
	h := md5Pool.Get().(hash.Hash)
	h.Reset()
	defer md5Pool.Put(h)
	n, err = readChecked(r, buf, crc, h)
	hashPasses.Add(int64(n))
	h.Sum(sum[:0])
	return n, sum, err
}

// readChecked fills buf from r until buf is full or r is exhausted,
// folding the running CRC-32 (crc non-nil) and h (non-nil) into the
// read loop.
func readChecked(r io.Reader, buf []byte, crc *uint32, h hash.Hash) (n int, err error) {
	for n < len(buf) && err == nil {
		var k int
		k, err = r.Read(buf[n:])
		if k > 0 {
			if crc != nil {
				*crc = crc32.Update(*crc, crc32.IEEETable, buf[n:n+k])
			}
			if h != nil {
				h.Write(buf[n : n+k])
			}
			n += k
		}
	}
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// ingestBody is the ingress for a bare chunk body (JSON-dialect PUT,
// JSON replica GET response): it reads the body into buf, hashing as the
// bytes arrive, and returns the verified frame aliasing buf. buf must
// hold ChunkSize+1 bytes so an oversized body is detectable. Errors
// wrap ErrTooLarge or ErrBadDigest; anything else is a failed read.
func ingestBody(r io.Reader, buf []byte, want Sum) (*frame, error) {
	n, got, err := readHashed(r, buf[:ChunkSize+1], nil)
	if err != nil {
		return nil, err
	}
	if n > ChunkSize {
		return nil, fmt.Errorf("%w: chunk exceeds %d bytes", ErrTooLarge, ChunkSize)
	}
	if got != want {
		return nil, fmt.Errorf("%w: body hashes to %s, not %s", ErrBadDigest, got, want)
	}
	return sealFrame(want, buf[:n]), nil
}

// own returns the frame with its payload copied out of the scratch
// buffer it aliases.
func (f *frame) own() *frame {
	f.payload = append([]byte(nil), f.payload...)
	return f
}

// syncGroup lets one request owe a single wait for everything that must
// be durable before it is acknowledged. A DiskStore that finds the group
// in its put's context registers the LSN it would have waited for and
// returns; a ReplicatedStore relays the frame to its remote owners over
// the request's relay and returns. The request then waits once, before
// anything is acknowledged: for one group fsync per store or, with a
// relay, for the write quorum of every frame, the local fsync counting
// as one ack. Stores that do not know the group sync
// inline, as does a put that arrives after the group has been waited on.
type syncGroup struct {
	mu       sync.Mutex
	closed   bool
	frames   int                  // puts the request declared
	claimed  int                  // puts a relay has taken
	deferred int                  // puts whose fsync a store handed over
	owed     map[*DiskStore]int64 // highest LSN appended per store
	relay    *relay               // replica acks owed; nil until a ReplicatedStore puts
}

type syncGroupKey struct{}

// withSyncGroup starts a group for a request that will hand down frames
// puts.
func withSyncGroup(ctx context.Context, frames int) (context.Context, *syncGroup) {
	g := &syncGroup{frames: frames}
	return context.WithValue(ctx, syncGroupKey{}, g), g
}

// deferSync hands the wait for lsn to the context's sync group.
// deferred is false when there is none (or it already closed): the
// caller syncs inline. more reports that the request has declared puts
// still to come, so its wait is not next.
func deferSync(ctx context.Context, ds *DiskStore, lsn int64) (deferred, more bool) {
	g, _ := ctx.Value(syncGroupKey{}).(*syncGroup)
	if g == nil {
		return false, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false, false
	}
	if g.owed == nil {
		g.owed = make(map[*DiskStore]int64, 1)
	}
	if lsn > g.owed[ds] {
		g.owed[ds] = lsn
	}
	g.deferred++
	return true, g.deferred < g.frames
}

// relayFor hands rs the request's relay for one put, starting it on the
// first. Nil means there is no open group, or its relay already has
// every frame the request declared: the put is a batch of its own.
func relayFor(ctx context.Context, rs *ReplicatedStore) *relay {
	g, _ := ctx.Value(syncGroupKey{}).(*syncGroup)
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || g.claimed >= g.frames {
		return nil
	}
	g.claimed++
	if g.relay == nil {
		g.relay = rs.newRelay(ctx, g.frames)
	}
	return g.relay
}

// close stops the group accepting deferrals and returns what it owes.
func (g *syncGroup) close() (map[*DiskStore]int64, *relay) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	owed, rl := g.owed, g.relay
	g.owed, g.relay = nil, nil
	return owed, rl
}

// wait closes the group and makes everything it was handed durable: one
// syncTo per store, recorded as a disk fsync span under ctx. With a
// relay, the local fsync is one of the acks its quorum counts: it runs
// beside the peers' streams, under the fan-out span.
func (g *syncGroup) wait(ctx context.Context) error {
	owed, rl := g.close()
	if rl == nil {
		return syncOwed(ctx, owed)
	}
	ctx = tracing.NewContext(ctx, rl.span)
	return rl.finish(func() error { return syncOwed(ctx, owed) })
}

func syncOwed(ctx context.Context, owed map[*DiskStore]int64) error {
	for ds, lsn := range owed {
		sp := tracing.ChildFromContext(ctx, tracing.CompDisk, tracing.SpanDiskFsync)
		err := ds.log.syncTo(lsn)
		sp.EndErr(err)
		if err != nil {
			return err
		}
	}
	return nil
}

// release is the request's deferred cleanup: a group that was never
// waited on — the request failed first — cuts its replica streams
// short, so no owner acknowledges a batch the client was refused.
func (g *syncGroup) release() {
	if _, rl := g.close(); rl != nil {
		rl.abort(errBatchAbandoned)
	}
}
