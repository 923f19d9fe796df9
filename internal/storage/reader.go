package storage

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// ChunkReader is a streaming view of one stored chunk. Disk-backed
// readers wrap an io.SectionReader-style window over the pin-counted
// segment region — the pin is held until Close, so compaction cannot
// close the file underneath an in-flight response — and memory-backed
// readers wrap the store's immutable payload slice without copying.
// Either way the front-end serves the bytes through io.Copy instead of
// materializing a []byte per GET.
//
// A ChunkReader must be Closed exactly once when the caller is done
// streaming (Close is idempotent, so defer is safe). The payload
// accessors (Bytes, Frame, StreamTo) may be used repeatedly until
// then.
type ChunkReader struct {
	size int64

	// Memory-backed source: the payload slice itself. Content-addressed
	// chunks are immutable, so sharing the store's slice is safe.
	data []byte

	// Disk-backed source: the record window [recOff, recOff+24+size) of
	// a segment file, pinned against compaction until release runs.
	ra     io.ReaderAt
	recOff int64
	// storedCRC is the record's CRC32 (over the 20-byte header prefix
	// and the payload) read from the header at open; hdrCRC is the
	// checksum state after the header prefix, so a streaming copy can
	// continue it over the payload without a second pass.
	storedCRC uint32
	hdrCRC    uint32

	release func()
	once    sync.Once
}

// NewBytesReader wraps an in-memory payload (no copy; the slice must
// be immutable for the reader's lifetime, which content-addressed
// chunks are).
func NewBytesReader(data []byte) *ChunkReader {
	return &ChunkReader{size: int64(len(data)), data: data}
}

// newDiskReader wraps a pinned record region. storedCRC/hdrCRC come
// from the record header; release drops the segment pin.
func newDiskReader(ra io.ReaderAt, recOff, size int64, storedCRC, hdrCRC uint32, release func()) *ChunkReader {
	return &ChunkReader{
		size:      size,
		ra:        ra,
		recOff:    recOff,
		storedCRC: storedCRC,
		hdrCRC:    hdrCRC,
		release:   release,
	}
}

// Size returns the payload length in bytes.
func (cr *ChunkReader) Size() int64 { return cr.size }

// Bytes returns the in-memory payload when the source is RAM. Callers
// must not mutate it.
func (cr *ChunkReader) Bytes() ([]byte, bool) {
	if cr.data != nil || cr.size == 0 && cr.ra == nil {
		return cr.data, true
	}
	return nil, false
}

// Frame returns a reader over the chunk's complete mcsbin/1 frame
// (sum|len|crc32|payload) when the store already holds the bytes in
// that framing — a DiskStore record IS the frame, so a binary GET
// response streams the raw record region with no re-encode and no CRC
// recompute. Memory-backed readers return false and the caller
// synthesizes the header.
func (cr *ChunkReader) Frame() (io.Reader, int64, bool) {
	if cr.ra == nil {
		return nil, 0, false
	}
	return io.NewSectionReader(cr.ra, cr.recOff, recHeaderSize+cr.size), recHeaderSize + cr.size, true
}

// StreamTo copies the payload into w, folding the record CRC check
// into the copy loop for disk-backed readers: the checksum is computed
// over the bytes as they stream (no second pass), and verified reports
// whether it matched the stored record CRC. Memory-backed payloads
// were verified on the way in and report true. A short or failed write
// returns the bytes actually written and the write error.
func (cr *ChunkReader) StreamTo(w io.Writer) (written int64, verified bool, err error) {
	if cr.ra == nil {
		n, err := w.Write(cr.data)
		return int64(n), true, err
	}
	scratch := getCopyBuf()
	defer putCopyBuf(scratch)
	buf := *scratch
	crc := cr.hdrCRC
	var off int64
	for off < cr.size {
		n := int64(len(buf))
		if rem := cr.size - off; rem < n {
			n = rem
		}
		k, rerr := cr.ra.ReadAt(buf[:n], cr.recOff+recHeaderSize+off)
		if k > 0 {
			crc = crc32.Update(crc, crc32.IEEETable, buf[:k])
			wn, werr := w.Write(buf[:k])
			written += int64(wn)
			if werr != nil {
				return written, false, werr
			}
			if wn < k {
				return written, false, io.ErrShortWrite
			}
			off += int64(k)
		}
		if rerr != nil && rerr != io.EOF {
			return written, false, rerr
		}
		if k == 0 {
			return written, false, io.ErrUnexpectedEOF
		}
	}
	return written, crc == cr.storedCRC, nil
}

// Close releases the underlying pin (idempotent).
func (cr *ChunkReader) Close() error {
	cr.once.Do(func() {
		if cr.release != nil {
			cr.release()
		}
	})
	return nil
}

// ReaderStore is the streaming-read part of ChunkStore. Every tier
// serves it (DiskStore from pinned segment regions, MemStore and
// CachedStore from resident slices, TieredStore and ReplicatedStore
// by delegation), so the front-end serves any stack uniformly without
// materializing chunk payloads.
type ReaderStore interface {
	// GetReaderCtx returns a streaming view of the chunk, or
	// ErrNotFound. The caller must Close the reader.
	GetReaderCtx(ctx context.Context, sum Sum) (*ChunkReader, error)
}

// GetReader is s.GetReaderCtx(ctx, sum). Nothing in this module calls
// it; it stays only for the benchmark module's tests, and goes once
// they call the method.
func GetReader(ctx context.Context, s ChunkStore, sum Sum) (*ChunkReader, error) {
	return s.GetReaderCtx(ctx, sum)
}

// copyBufPool recycles the mid-size buffers the streaming copy loops
// use (segment file -> socket); 64 KB keeps syscall counts low at a
// footprint far below a pooled full chunk.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 64<<10)
		return &b
	},
}

func getCopyBuf() *[]byte  { return copyBufPool.Get().(*[]byte) }
func putCopyBuf(b *[]byte) { copyBufPool.Put(b) }

// errReaderClosed reports use of a store that has shut down.
var errReaderClosed = fmt.Errorf("storage: store closed")
