// Package storage implements the mobile cloud storage service that the
// paper measures: a metadata server that performs file-level
// deduplication and front-end assignment, storage front-end servers
// that move 512 KB chunks over HTTP and emit the Table 1 request logs,
// a content-addressed chunk store, and the client used by mobile apps
// and PC clients.
//
// The store/retrieve protocol follows §2.1 of the paper:
//
//   - To store, a client sends the file metadata (name, size, MD5) to
//     the metadata server. If the content is already known, the server
//     links it into the user's namespace and the upload is skipped
//     (deduplication). Otherwise the client is directed to a front-end
//     and sends a file storage operation request followed by chunk
//     storage requests, one per 512 KB chunk.
//   - To retrieve, a client resolves a file URL at the metadata server
//     to the file's MD5, issues a file retrieval operation request to
//     a front-end, then requests each chunk in sequence.
package storage

import (
	"crypto/md5"
	"encoding/hex"

	"mcloud/internal/md5lanes"
)

// ChunkSize is the fixed transfer unit of the service (§2.1).
const ChunkSize = 512 << 10

// Sum is a content hash (MD5, as in the measured service).
type Sum [md5.Size]byte

// SumBytes hashes a byte slice.
func SumBytes(b []byte) Sum {
	hashPasses.Add(int64(len(b)))
	return md5.Sum(b)
}

// sumChained hashes data chunk by chunk in one crypto/md5 pass and
// returns its digest and its chaining values: the hash state after
// every chunk but the last (md5lanes.State), which let a retrieve
// check each chunk on its own (see retrieval.verify).
func sumChained(data []byte) (Sum, []Sum) {
	hashPasses.Add(int64(len(data)))
	h := md5.New()
	var chain []Sum
	for off := ChunkSize; off < len(data); off += ChunkSize {
		h.Write(data[off-ChunkSize : off])
		chain = append(chain, md5lanes.State(h))
	}
	h.Write(data[len(chain)*ChunkSize:])
	var sum Sum
	h.Sum(sum[:0])
	return sum, chain
}

// sumChunks hashes chunks into sums[i]: those of ChunkSize side by
// side, up to md5lanes.MaxLanes per lane pass, so independent
// full-size chunks cost about what one costs; any shorter chunk
// through crypto/md5.
func sumChunks(sums []Sum, chunks [][]byte) {
	for lo := 0; lo < len(chunks); lo += md5lanes.MaxLanes {
		var lanes [md5lanes.MaxLanes][]byte
		var at [md5lanes.MaxLanes]int
		n := 0
		for i := lo; i < min(lo+md5lanes.MaxLanes, len(chunks)); i++ {
			if len(chunks[i]) != ChunkSize {
				sums[i] = SumBytes(chunks[i])
				continue
			}
			lanes[n], at[n] = chunks[i], i
			n++
		}
		if n == 0 {
			continue
		}
		var out [md5lanes.MaxLanes][md5lanes.Size]byte
		md5lanes.Sum(out[:n], lanes[:n])
		for j, i := range at[:n] {
			sums[i] = out[j]
		}
		hashPasses.Add(int64(n) * ChunkSize)
	}
}

// ParseSum decodes a hex digest.
func ParseSum(s string) (Sum, error) {
	var out Sum
	b, err := hex.DecodeString(s)
	if err != nil {
		return out, err
	}
	if len(b) != md5.Size {
		return out, errBadDigest
	}
	copy(out[:], b)
	return out, nil
}

func (s Sum) String() string { return hex.EncodeToString(s[:]) }

// SplitSums hashes each ChunkSize-sized piece of data and returns the
// per-chunk digests, mirroring what the mobile app computes before a
// file storage operation request.
func SplitSums(data []byte) []Sum {
	n := (len(data) + ChunkSize - 1) / ChunkSize
	if n == 0 {
		return nil
	}
	sums := make([]Sum, 0, n)
	for off := 0; off < len(data); off += ChunkSize {
		end := off + ChunkSize
		if end > len(data) {
			end = len(data)
		}
		sums = append(sums, SumBytes(data[off:end]))
	}
	return sums
}

// StoreCheckRequest asks the metadata server whether a file's content
// is already stored.
type StoreCheckRequest struct {
	UserID  uint64 `json:"user_id"`
	Name    string `json:"name"`
	Size    int64  `json:"size"`
	FileMD5 string `json:"file_md5"`
	// ChainMD5s are the file's chaining values, one per chunk boundary
	// (see sumChained). The metadata server keeps them for retrieves and
	// drops a list that does not parse or does not have
	// ceil(Size/ChunkSize)-1 values.
	ChainMD5s []string `json:"chain_md5s,omitempty"`
}

// StoreCheckResponse carries the dedup verdict and, when an upload is
// needed, the front-end to contact.
type StoreCheckResponse struct {
	Duplicate bool   `json:"duplicate"`          // content already stored; no upload needed
	FrontEnd  string `json:"frontend,omitempty"` // base URL of the assigned front-end
	URL       string `json:"url"`                // the file's service URL
	Shard     int    `json:"shard"`              // metadata shard that owns this user's namespace
}

// ResolveRequest asks the metadata server for the MD5 behind a file
// URL (the first step of a retrieval, §2.1).
type ResolveRequest struct {
	UserID uint64 `json:"user_id"`
	URL    string `json:"url"`
}

// ResolveResponse returns the file hash and a front-end that can serve
// it, and, once the file is committed, its ordered chunk digests: a
// client that has them can skip the file retrieval operation request
// and let the operation ride its first chunk batch (see
// FileRetrieveHeader). Reserved, uncommitted files and empty files
// carry no list. ChainMD5s are the committed file's chaining values,
// when its store sent them: the retrieve then checks each chunk on its
// own.
type ResolveResponse struct {
	FileMD5   string   `json:"file_md5"`
	Size      int64    `json:"size"`
	FrontEnd  string   `json:"frontend"`
	Shard     int      `json:"shard"` // metadata shard that resolved (and will commit) this file
	ChunkMD5s []string `json:"chunk_md5s,omitempty"`
	ChainMD5s []string `json:"chain_md5s,omitempty"`
}

// FileOpRequest is the file storage/retrieval operation request sent
// to a front-end before chunks move. For storage it carries the chunk
// digests; for retrieval the front-end returns them.
type FileOpRequest struct {
	UserID    uint64   `json:"user_id"`
	DeviceID  uint64   `json:"device_id"`
	Device    string   `json:"device"` // "android", "ios", "pc"
	Name      string   `json:"name,omitempty"`
	Size      int64    `json:"size"`
	FileMD5   string   `json:"file_md5"`
	ChunkMD5s []string `json:"chunk_md5s,omitempty"`
	// Shard pins the metadata shard that reserved (store) or resolved
	// (retrieve) the file, so the front-end commits the namespace
	// mutation against the same shard the client's handshake used.
	Shard int `json:"shard"`
}

// FileOpResponse acknowledges a file operation. For retrievals it
// lists the chunk digests to fetch. For stores on a resumable
// front-end it lists the chunks the server still needs — an empty set
// means the upload is already complete (all chunks present, file
// committed), which is how an interrupted client resumes without
// re-sending data.
type FileOpResponse struct {
	OK        bool     `json:"ok"`
	ChunkMD5s []string `json:"chunk_md5s,omitempty"`
	Size      int64    `json:"size,omitempty"`
	// Resumable marks a server that reports MissingMD5s; clients fall
	// back to sending every chunk when it is false.
	Resumable   bool     `json:"resumable,omitempty"`
	MissingMD5s []string `json:"missing_md5s,omitempty"`
}

// StatRequest is the batched existence check of /v1/op/stat: one
// round trip answers "which of these chunks do you already hold?" for
// a whole file, where the legacy protocol needed a per-chunk probe.
// The resumable-upload path and the rebalancer both ride on it.
type StatRequest struct {
	ChunkMD5s []string `json:"chunk_md5s"`
}

// StatResponse lists the subset of the queried chunks the server does
// NOT hold, in query order. Present = len(queried) - len(missing).
type StatResponse struct {
	MissingMD5s []string `json:"missing_md5s"`
	Present     int      `json:"present"`
}

// ChunkInfo describes one locally-held chunk, as listed by the
// /v1/cluster/chunks admin endpoint (consumed by mcsrebalance).
type ChunkInfo struct {
	MD5  string `json:"md5"`
	Size int64  `json:"size"`
}

// MetaShardInfo describes one metadata shard in the cluster-info
// summary: its current primary as last discovered ("" when unknown)
// and the fencing epoch that primary serves at.
type MetaShardInfo struct {
	Shard   int    `json:"shard"`
	Primary string `json:"primary,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// MetaShardSummary is the metadata-plane half of /v1/cluster/info:
// one probe tells an operator how many shards exist, under which map
// version, and who currently leads each.
type MetaShardSummary struct {
	Shards     int             `json:"shards"`
	MapVersion uint64          `json:"map_version"`
	ShardInfo  []MetaShardInfo `json:"shard_info,omitempty"`
}

// ClusterInfo describes a node's cluster configuration, served by
// /v1/cluster/info.
type ClusterInfo struct {
	Node     string   `json:"node"`     // this node's advertised base URL ("" when single-node)
	Peers    []string `json:"peers"`    // full membership, including Node
	Replicas int      `json:"replicas"` // N
	Quorum   int      `json:"quorum"`   // W
	// Meta summarizes the metadata shard plane, when this node knows
	// it (omitted by nodes without metadata wiring).
	Meta *MetaShardSummary `json:"meta,omitempty"`
}

// errorResponse is the uniform legacy error body.
type errorResponse struct {
	Error string `json:"error"`
}
