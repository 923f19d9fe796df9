package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/metrics"
)

// MetaWAL is the metadata server's write-ahead log: the durability
// layer that makes every acknowledged metadata mutation — URL
// reservations, dedup links, commits, unlinks — survive SIGKILL, the
// way DiskStore already protects chunk payloads. Both stand on the same
// segment log (seglog.go), so the mechanism is the same group-commit
// design:
//
//   - Every mutation appends one framed record (seq | len | crc32 |
//     JSON payload) to the active segment file and then waits for an
//     fsync to cover its LSN. Concurrent writers piggyback on one
//     another's fsyncs, so the fsync rate stays roughly constant as
//     commit concurrency grows.
//   - A checkpoint serializes the full catalog with the snapshot
//     codec (persist.go), writes it atomically (temp file, fsync,
//     rename, directory fsync), seals the active segment, and deletes the
//     sealed segments the checkpoint now covers. Rotation happens
//     only at checkpoints, so sealed segments are always fsynced
//     before they stop being written — a crash can tear only the
//     final segment.
//   - Open-time recovery loads the checkpoint, replays every WAL
//     record with a later sequence number, and truncates a torn final
//     record with the same segment scan DiskStore's recovery runs.
//
// The log is also the replication stream: committed records feed the
// in-memory tail buffer that standby nodes pull over /v1/meta/wal/pull
// (see metareplicate.go).
type MetaWAL struct {
	// cpMu runs one checkpoint at a time, from rotation through prune,
	// so checkpoints land in the order their snapshots were taken: none
	// replaces a newer one, and cpSeq only rises (a reseed, which
	// discards the history it replaces, is the one way it falls). Lock
	// order: cpMu, then Metadata.mu, then mu.
	cpMu sync.Mutex
	// reseed makes the next checkpoint write even at an unchanged
	// sequence and prune every sealed segment: the catalog was replaced
	// by ResetFromSnapshot, so the log on disk is another history
	// (guarded by cpMu).
	reseed bool

	mu         sync.Mutex
	activeID   uint32 // the log's active segment
	activeSize int64
	sealed     []sealedSeg
	cpSeq      uint64 // sequence number covered by checkpoint.json
	closed     bool

	// log holds the segment files' lifecycle, the recovery scan and the
	// group-commit LSNs.
	log *segLog

	appends     atomic.Int64
	bytesLogged atomic.Int64
	checkpoints atomic.Int64
	recovery    time.Duration

	fsyncHist *metrics.Histogram // nil until Instrument
}

// sealedSeg is one closed segment file awaiting checkpoint pruning.
type sealedSeg struct {
	id      uint32
	lastSeq uint64 // highest record sequence the segment holds
}

// Metadata WAL record operations. Each record is one logical mutation;
// replaying them in sequence order reproduces the in-memory state
// exactly (applyRecordLocked is the single mutation path shared by
// live operations, recovery replay, and standby apply).
const (
	walOpReserve = "reserve" // StoreCheck miss: reserve URL + link user
	walOpLink    = "link"    // StoreCheck dedup hit: link existing file
	walOpCommit  = "commit"  // finalize an upload (chunk digests land)
	walOpUnlink  = "unlink"  // remove a file from one user's namespace
	walOpEpoch   = "epoch"   // leadership fence: a promotion bumped the epoch
)

// MetaWALRecord is one logged metadata mutation; it doubles as the
// wire form streamed to standby nodes.
type MetaWALRecord struct {
	Seq uint64 `json:"seq"`
	// Epoch is the leadership term the record was written under. It
	// rides inside the JSON payload (covered by the frame CRC) so the
	// 16-byte header layout is unchanged and old segments decode with
	// epoch 0. A walOpEpoch record is how the epoch rises; every later
	// record carries the new value, so replaying a WAL reproduces the
	// epoch along with the catalog.
	Epoch     uint64   `json:"epoch,omitempty"`
	Op        string   `json:"op"`
	User      uint64   `json:"user,omitempty"`
	URL       string   `json:"url,omitempty"`
	Name      string   `json:"name,omitempty"`
	Size      int64    `json:"size,omitempty"`
	FileMD5   string   `json:"file_md5,omitempty"`
	ChunkMD5s []string `json:"chunk_md5s,omitempty"`
	// ChainMD5s rides a reserve: the file's chaining values, when the
	// store-check carried a well-formed list (see parseChain).
	ChainMD5s []string `json:"chain_md5s,omitempty"`
	URLSeq    int64    `json:"url_seq,omitempty"`
}

const (
	walHeaderSize = 16 // seq uint64 | len uint32 | crc32 uint32
	walSegPattern = "wal-%08d.mwal"
	// maxWALRecord bounds one record's payload; anything larger in a
	// header is framing damage, not a real record.
	maxWALRecord = 8 << 20
	// checkpointName is the atomic snapshot file beside the segments.
	checkpointName = "checkpoint.json"
)

func walSegName(id uint32) string { return fmt.Sprintf(walSegPattern, id) }

// encodeWALHeader frames one record; the CRC covers the first 12
// header bytes and the payload, catching torn and bit-flipped records
// in one check.
func encodeWALHeader(hdr []byte, seq uint64, payload []byte) {
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], frameCRC(hdr[:walHeaderSize], payload))
}

// checkpointFile is the on-disk form of a metadata checkpoint: the
// snapshot codec plus the WAL sequence number it covers.
type checkpointFile struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	// Epoch is the leadership term at checkpoint time; absent (0) in
	// checkpoints written before fencing existed.
	Epoch uint64       `json:"epoch,omitempty"`
	Meta  metaSnapshot `json:"meta"`
}

// OpenDurableMetadata opens (creating if needed) a WAL-backed metadata
// server rooted at dir: state is the latest checkpoint plus a replay
// of every WAL record past it, with a torn final record truncated
// away. Every subsequent mutation is disk-covered before it is
// acknowledged.
func OpenDurableMetadata(dir string) (_ *Metadata, err error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: metawal: %w", err)
	}
	m := NewMetadata()

	cp, err := loadCheckpoint(filepath.Join(dir, checkpointName))
	if err != nil {
		return nil, err
	}
	if cp != nil {
		if err := m.restoreLocked(cp.Meta); err != nil {
			return nil, fmt.Errorf("storage: metawal: checkpoint: %w", err)
		}
		m.lastSeq = cp.Seq
		m.epoch = cp.Epoch
	}

	w := &MetaWAL{log: newSegLog(dir, walSegPattern, walHeaderSize, maxWALRecord, 1)}
	if cp != nil {
		w.cpSeq = cp.Seq
	}
	defer func() {
		if err != nil {
			w.Close() // recover may have left the final segment open
		}
	}()
	replay, err := w.recover()
	if err != nil {
		return nil, fmt.Errorf("storage: metawal: %w", err)
	}
	for i := range replay {
		rec := replay[i]
		if rec.Seq <= m.lastSeq {
			continue // covered by the checkpoint (prune raced a crash)
		}
		if rec.Seq != m.lastSeq+1 {
			// Acknowledged records are on no disk: refuse to serve a
			// catalog that silently lacks them.
			return nil, fmt.Errorf("storage: metawal: replay gap: records %d..%d missing (checkpoint seq %d)",
				m.lastSeq+1, rec.Seq-1, w.cpSeq)
		}
		if err := m.applyRecordLocked(&rec); err != nil {
			return nil, fmt.Errorf("storage: metawal: replay seq %d: %w", rec.Seq, err)
		}
		m.lastSeq = rec.Seq
		m.tailAppendLocked(rec)
	}
	w.recovery = time.Since(start)
	m.wal = w
	return m, nil
}

// loadCheckpoint reads a checkpoint file; a missing file is a fresh
// start, not an error.
func loadCheckpoint(path string) (*checkpointFile, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cp checkpointFile
	if err := json.NewDecoder(f).Decode(&cp); err != nil {
		return nil, fmt.Errorf("storage: metawal: corrupt checkpoint: %w", err)
	}
	if cp.Version != snapshotVersion {
		return nil, fmt.Errorf("storage: metawal: unsupported checkpoint version %d", cp.Version)
	}
	return &cp, nil
}

// recover scans the WAL segments in id order, returning every decoded
// record. A record whose JSON does not decode, or whose sequence number
// disagrees with its header, is damage like a bad CRC.
func (w *MetaWAL) recover() ([]MetaWALRecord, error) {
	ids, err := w.log.ids()
	if err != nil {
		return nil, err
	}
	var records []MetaWALRecord
	for i, id := range ids {
		last := w.cpSeq
		final := i == len(ids)-1
		f, size, err := w.log.scan(id, final, func(_ int64, hdr, payload []byte) bool {
			var rec MetaWALRecord
			if json.Unmarshal(payload, &rec) != nil || rec.Seq != binary.LittleEndian.Uint64(hdr[0:8]) {
				return false
			}
			records = append(records, rec)
			last = rec.Seq
			return true
		})
		if err != nil {
			return nil, err
		}
		if final {
			// Resume appending into the last segment.
			w.activeID, w.activeSize = id, size
			w.log.active.Store(f)
		} else {
			f.Close()
			w.sealed = append(w.sealed, sealedSeg{id: id, lastSeq: last})
		}
	}
	if len(ids) == 0 {
		if w.activeID, err = w.log.create(); err != nil {
			return nil, err
		}
	}
	return records, nil
}

// Append writes one framed record to the active segment and returns
// the LSN an fsync must cover for it to be durable. The caller holds
// the Metadata lock, which is what serializes record order with apply
// order; WaitDurable is called after the lock is released.
func (w *MetaWAL) Append(rec *MetaWALRecord) (int64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("storage: metawal: closed")
	}
	buf := make([]byte, walHeaderSize+len(payload))
	encodeWALHeader(buf[:walHeaderSize], rec.Seq, payload)
	copy(buf[walHeaderSize:], payload)
	if _, err := w.log.active.Load().WriteAt(buf, w.activeSize); err != nil {
		return 0, err
	}
	w.activeSize += int64(len(buf))
	w.appends.Add(1)
	w.bytesLogged.Add(int64(len(buf)))
	return w.log.appendLSN.Add(int64(len(buf))), nil
}

// WaitDurable blocks until an fsync has covered lsn: the group commit
// DiskStore's puts wait in too, so concurrent writers share fsyncs.
func (w *MetaWAL) WaitDurable(lsn int64) error {
	if lsn == 0 || w.log.syncedLSN.Load() >= lsn {
		return nil
	}
	start := time.Now()
	err := w.log.syncTo(lsn)
	if h := w.fsyncHist; h != nil && err == nil {
		h.ObserveSince(start)
	}
	return err
}

// rotateLocked seals the active segment (fsync, so it can never tear)
// and opens the next one; sealSeq records the highest sequence the
// sealed file holds, for checkpoint pruning (caller holds w.mu).
func (w *MetaWAL) rotateLocked(sealSeq uint64) (err error) {
	if err = w.log.seal(); err != nil {
		return err
	}
	if err = w.log.active.Load().Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, sealedSeg{id: w.activeID, lastSeq: sealSeq})
	w.activeSize = 0
	w.activeID, err = w.log.create()
	return err
}

// writeCheckpoint persists the snapshot atomically beside the
// segments: temp file + fsync + rename + directory fsync.
func (w *MetaWAL) writeCheckpoint(snap metaSnapshot, seq, epoch uint64) error {
	tmp, err := os.CreateTemp(w.log.dir, ".checkpoint-*")
	if err != nil {
		return err
	}
	cp := checkpointFile{Version: snapshotVersion, Seq: seq, Epoch: epoch, Meta: snap}
	err = json.NewEncoder(tmp).Encode(cp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(w.log.dir, checkpointName)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(w.log.dir)
}

// prune deletes sealed segments fully covered by the checkpoint at
// seq — all of them after a reseed. A crash before (or during) pruning
// is safe: replay skips records at or below the checkpoint sequence,
// and the next checkpoint collects the leftovers.
func (w *MetaWAL) prune(seq uint64, all bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cpSeq = seq
	w.checkpoints.Add(1)
	kept := w.sealed[:0]
	var first error
	for _, s := range w.sealed {
		if all || s.lastSeq <= seq {
			if err := os.Remove(w.log.path(s.id)); err != nil && !os.IsNotExist(err) && first == nil {
				first = err
				kept = append(kept, s)
			}
			continue
		}
		kept = append(kept, s)
	}
	w.sealed = kept
	return first
}

// Close fsyncs and releases the active segment. Call Checkpoint first
// for a clean shutdown; Close alone is still crash-equivalent (the
// WAL replays).
func (w *MetaWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	f := w.log.active.Load()
	err := w.log.close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// MetaWALStats is a snapshot of the log's accounting.
type MetaWALStats struct {
	CheckpointSeq uint64        // sequence covered by the checkpoint file
	Segments      int           // segment files on disk (sealed + active)
	Appends       int64         // records appended this process
	BytesLogged   int64         // framed bytes appended this process
	Fsyncs        int64         // fsync syscalls issued (group-committed)
	Checkpoints   int64         // checkpoints taken this process
	Recovery      time.Duration // checkpoint load + replay time at open
	Truncated     int64         // torn-tail bytes discarded at open
}

// Stats returns the current accounting.
func (w *MetaWAL) Stats() MetaWALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return MetaWALStats{
		CheckpointSeq: w.cpSeq,
		Segments:      len(w.sealed) + 1,
		Appends:       w.appends.Load(),
		BytesLogged:   w.bytesLogged.Load(),
		Fsyncs:        w.log.fsyncs.Load(),
		Checkpoints:   w.checkpoints.Load(),
		Recovery:      w.recovery,
		Truncated:     w.log.truncated,
	}
}

// Instrument registers the WAL series. Called from
// Metadata.Instrument when a WAL is attached.
func (w *MetaWAL) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("mcs_meta_wal_appends_total", "Metadata WAL records appended.",
		func() float64 { return float64(w.appends.Load()) })
	reg.CounterFunc("mcs_meta_wal_bytes_total", "Metadata WAL bytes appended (headers included).",
		func() float64 { return float64(w.bytesLogged.Load()) })
	reg.CounterFunc("mcs_meta_wal_fsyncs_total", "Metadata WAL fsync syscalls (group-committed).",
		func() float64 { return float64(w.log.fsyncs.Load()) })
	reg.CounterFunc("mcs_meta_wal_checkpoints_total", "Metadata checkpoints taken.",
		func() float64 { return float64(w.checkpoints.Load()) })
	reg.GaugeFunc("mcs_meta_wal_segments", "Metadata WAL segment files on disk.",
		func() float64 { return float64(w.Stats().Segments) })
	reg.GaugeFunc("mcs_meta_wal_recovery_seconds", "Metadata recovery time at open (checkpoint load + WAL replay).",
		func() float64 { return w.recovery.Seconds() })
	reg.GaugeFunc("mcs_meta_wal_truncated_bytes", "Torn-tail bytes discarded at the last open.",
		func() float64 { return float64(w.log.truncated) })
	w.fsyncHist = reg.Histogram("mcs_meta_wal_fsync_seconds",
		"Group-commit fsync wait behind one metadata mutation.")
}

// Checkpoint serializes the current catalog, seals the active WAL
// segment, writes the snapshot atomically, and prunes the segments it
// covers. Mutations are paused only for the in-memory serialization
// and rotation; the disk writes happen after the lock drops. A no-op
// when nothing was logged since the last checkpoint. Concurrent calls
// run one after another.
func (m *Metadata) Checkpoint() error {
	w := m.wal
	if w == nil {
		return nil
	}
	w.cpMu.Lock()
	defer w.cpMu.Unlock()
	return m.checkpointLocked()
}

// checkpointLocked is Checkpoint for a caller holding wal.cpMu.
func (m *Metadata) checkpointLocked() error {
	w := m.wal
	m.mu.Lock()
	seq := m.lastSeq
	epoch := m.epoch
	w.mu.Lock()
	if seq == w.cpSeq && !w.reseed {
		w.mu.Unlock()
		m.mu.Unlock()
		return nil
	}
	snap := m.snapshotLocked()
	err := w.rotateLocked(seq)
	w.mu.Unlock()
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if checkpointStall != nil {
		checkpointStall()
	}
	if err := w.writeCheckpoint(snap, seq, epoch); err != nil {
		return err
	}
	err = w.prune(seq, w.reseed)
	w.reseed = false
	return err
}

// checkpointStall, when set, runs inside Checkpoint between rotation
// and the checkpoint write, with no lock but the checkpoint's own held.
// Test hook: lets a test hold a checkpoint at the point where a
// concurrent one used to overtake it.
var checkpointStall func()

// CloseWAL checkpoints and closes the log; the metadata server keeps
// serving from memory but no longer persists (used at shutdown).
func (m *Metadata) CloseWAL() error {
	if m.wal == nil {
		return nil
	}
	if err := m.Checkpoint(); err != nil {
		return err
	}
	return m.wal.Close()
}

// WAL exposes the attached log, nil for a RAM-only metadata server.
func (m *Metadata) WAL() *MetaWAL { return m.wal }

// LastSeq returns the sequence number of the newest applied mutation.
func (m *Metadata) LastSeq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lastSeq
}
