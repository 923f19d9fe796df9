package storage

import (
	"io"
	"sync"
)

// chunkBufPool recycles transfer-sized scratch buffers — one chunk
// plus a byte, so an oversized body is detectable without growing —
// for the ingress readers and the client download path.
// Steady-state transfer then allocates only the bytes that outlive
// the request: the stored copy on the server and the assembled file
// on the client.
var chunkBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, ChunkSize+1)
		return &b
	},
}

func getChunkBuf() *[]byte  { return chunkBufPool.Get().(*[]byte) }
func putChunkBuf(b *[]byte) { chunkBufPool.Put(b) }

// readBody fills buf from r until EOF and returns the number of bytes
// read. It reports overflow (the body did not fit in buf) instead of
// growing, which is how chunk-sized reads stay allocation-free.
func readBody(r io.Reader, buf []byte) (n int, overflow bool, err error) {
	for n < len(buf) {
		k, rerr := r.Read(buf[n:])
		n += k
		if rerr == io.EOF {
			return n, false, nil
		}
		if rerr != nil {
			return n, false, rerr
		}
	}
	// Buffer full: a successful extra read means the body is longer
	// than the buffer.
	var probe [1]byte
	k, rerr := r.Read(probe[:])
	if k > 0 {
		return n, true, nil
	}
	if rerr != nil && rerr != io.EOF {
		return n, false, rerr
	}
	return n, false, nil
}
