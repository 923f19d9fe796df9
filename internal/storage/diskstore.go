package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/tracing"
)

// DiskStore is a durable ChunkStore built from append-only segment
// files, modeling the paper's back-end storage servers: 512 KB
// deduplicated chunks land behind the front-ends and must survive a
// process crash (§2.1). Each record carries a sum|len|crc32 header so
// the in-memory index can be rebuilt by scanning segments on open; a
// torn final record — the only damage a crash can inflict, since
// sealed segments are fsynced before rotation — is detected by the
// checksum and truncated away.
//
// Durability contract: when PutCtx returns nil the record has been
// written and covered by an fsync, so a SIGKILL at any later point
// loses nothing acknowledged. Fsyncs are group-committed: concurrent
// writers piggyback on one another's syncs, so the fsync rate stays
// roughly constant as writer count grows.
//
// Delete appends a tombstone record (replayed on recovery) and marks
// the dead bytes in the victim's segment; Compact rewrites sealed
// segments whose live ratio has dropped below a threshold, copying
// surviving records into the active segment and unlinking the old
// file. A crash mid-compaction is safe: copies live in a later
// segment than their originals, and the scan applies records in
// segment order, so the newest location wins and the stale segment is
// simply re-collected on the next pass.
type DiskStore struct {
	dir  string
	opts DiskStoreOptions

	mu        sync.RWMutex
	index     map[Sum]recLoc
	segs      map[uint32]*segment
	active    *segment
	nextID    uint32
	dataBytes int64 // live payload bytes (headers excluded)

	// appendLSN counts bytes ever appended (across segments); the
	// group-commit path tracks how far fsyncs have covered it.
	appendLSN atomic.Int64
	syncedLSN atomic.Int64
	syncMu    sync.Mutex

	puts        atomic.Int64
	dedupHits   atomic.Int64
	bytesStored atomic.Int64

	fsyncs      atomic.Int64
	compactions atomic.Int64
	streamReads atomic.Int64 // GetReaderCtx opens (zero-copy read path)
	recovery    time.Duration
	truncated   int64 // torn-tail bytes discarded at open
	closed      bool
}

// DiskStoreOptions tunes segment sizing and compaction.
type DiskStoreOptions struct {
	// SegmentSize is the byte size past which the active segment is
	// sealed and a new one started. Default 64 MB.
	SegmentSize int64
	// CompactBelow is the live-byte ratio under which Compact rewrites
	// a sealed segment. Default 0.5; <= 0 keeps the default, >= 1
	// compacts any segment with dead bytes.
	CompactBelow float64
	// NoSync disables fsync entirely (benchmarking only; the
	// durability contract is void).
	NoSync bool
}

func (o *DiskStoreOptions) setDefaults() {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 64 << 20
	}
	if o.CompactBelow <= 0 {
		o.CompactBelow = 0.5
	}
}

// recLoc addresses one live record. lsn is the append LSN an fsync
// must cover before the record may be acknowledged or reported present
// (zero for records recovered at open, which are durable by
// construction).
type recLoc struct {
	off int64
	lsn int64
	seg uint32
	n   uint32 // payload length
}

// segment is one on-disk file plus its occupancy accounting. live and
// dead are record byte counts including headers, so live+dead equals
// the file size once sealed.
type segment struct {
	id   uint32
	f    *os.File
	size int64
	live int64
	dead int64
	pins atomic.Int64 // in-flight ReadAt count, blocks file close
}

const (
	recHeaderSize = 24         // sum[16] | len uint32 | crc32 uint32
	tombstoneLen  = ^uint32(0) // len sentinel for a delete record
	segPattern    = "seg-%08d.mseg"
)

func segName(id uint32) string { return fmt.Sprintf(segPattern, id) }

// recordSize is the on-disk footprint of a record with an n-byte
// payload (tombstones pass 0).
func recordSize(n uint32) int64 {
	if n == tombstoneLen {
		return recHeaderSize
	}
	return recHeaderSize + int64(n)
}

// encodeHeader fills hdr with sum|len|crc32, where the checksum covers
// the first 20 header bytes and the payload, catching torn or
// bit-flipped records in a single pass.
func encodeHeader(hdr []byte, sum Sum, length uint32, payload []byte) {
	copy(hdr[:16], sum[:])
	binary.LittleEndian.PutUint32(hdr[16:20], length)
	crc := crc32.ChecksumIEEE(hdr[:20])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[20:24], crc)
}

// OpenDiskStore opens (creating if needed) a segment store rooted at
// dir and rebuilds the index by scanning every segment in order.
func OpenDiskStore(dir string, opts DiskStoreOptions) (*DiskStore, error) {
	opts.setDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: diskstore: %w", err)
	}
	ds := &DiskStore{
		dir:   dir,
		opts:  opts,
		index: make(map[Sum]recLoc),
		segs:  make(map[uint32]*segment),
	}
	start := time.Now()
	if err := ds.recover(); err != nil {
		return nil, err
	}
	ds.recovery = time.Since(start)
	return ds, nil
}

// recover scans the segment files in id order, replaying data and
// tombstone records into the index. Only the final segment may hold a
// torn record (earlier ones were fsynced before rotation); the torn
// tail is truncated so appends resume at a clean offset.
func (ds *DiskStore) recover() error {
	entries, err := os.ReadDir(ds.dir)
	if err != nil {
		return err
	}
	var ids []uint32
	for _, e := range entries {
		var id uint32
		if _, err := fmt.Sscanf(e.Name(), segPattern, &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for i, id := range ids {
		if _, err := ds.scanSegment(id, i == len(ids)-1); err != nil {
			return err
		}
		if id >= ds.nextID {
			ds.nextID = id + 1
		}
	}

	// Resume appending into the final segment if it has room;
	// otherwise (or with no segments at all) start a fresh one.
	if n := len(ids); n > 0 {
		last := ds.segs[ids[n-1]]
		if last.size < ds.opts.SegmentSize {
			f, err := os.OpenFile(filepath.Join(ds.dir, segName(last.id)), os.O_RDWR, 0o644)
			if err != nil {
				return err
			}
			last.f.Close()
			last.f = f
			ds.active = last
		}
	}
	if ds.active == nil {
		if err := ds.newActiveLocked(); err != nil {
			return err
		}
	}
	ds.appendLSN.Store(totalSize(ds.segs))
	ds.syncedLSN.Store(ds.appendLSN.Load())
	return nil
}

func totalSize(segs map[uint32]*segment) int64 {
	var n int64
	for _, s := range segs {
		n += s.size
	}
	return n
}

// scanSegment replays one segment file, updating the index and
// returning its occupancy accounting. final marks the last segment,
// whose torn tail (if any) is truncated rather than rejected.
func (ds *DiskStore) scanSegment(id uint32, final bool) (*segment, error) {
	path := filepath.Join(ds.dir, segName(id))
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	seg := &segment{id: id, f: f}
	// Register before scanning so tombstones and duplicates that refer
	// back into this same segment adjust its accounting.
	ds.segs[id] = seg
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fileSize := info.Size()

	var off int64
	hdr := make([]byte, recHeaderSize)
	var payload []byte
	for off < fileSize {
		ok, length, sum := false, uint32(0), Sum{}
		if fileSize-off >= recHeaderSize {
			if _, err := f.ReadAt(hdr, off); err != nil {
				f.Close()
				return nil, err
			}
			copy(sum[:], hdr[:16])
			length = binary.LittleEndian.Uint32(hdr[16:20])
			want := binary.LittleEndian.Uint32(hdr[20:24])
			switch {
			case length == tombstoneLen:
				ok = crc32.ChecksumIEEE(hdr[:20]) == want
			case length <= ChunkSize && off+recordSize(length) <= fileSize:
				if int(length) > cap(payload) {
					payload = make([]byte, length)
				}
				payload = payload[:length]
				if _, err := f.ReadAt(payload, off+recHeaderSize); err != nil {
					f.Close()
					return nil, err
				}
				crc := crc32.ChecksumIEEE(hdr[:20])
				ok = crc32.Update(crc, crc32.IEEETable, payload) == want
			}
		}
		if !ok {
			if !final {
				f.Close()
				return nil, fmt.Errorf("storage: diskstore: corrupt record in sealed segment %s at offset %d", segName(id), off)
			}
			// Torn tail from the crash that this recovery is healing:
			// discard it so the next append starts on a record boundary.
			ds.truncated += fileSize - off
			f.Close()
			if err := os.Truncate(path, off); err != nil {
				return nil, err
			}
			if f, err = os.Open(path); err != nil {
				return nil, err
			}
			seg.f = f
			fileSize = off
			break
		}

		rs := recordSize(length)
		if length == tombstoneLen {
			seg.dead += rs
			if loc, live := ds.index[sum]; live {
				ds.deadenLocked(loc)
				delete(ds.index, sum)
				ds.dataBytes -= int64(loc.n)
			}
		} else {
			if old, dup := ds.index[sum]; dup {
				// Duplicate data record (e.g. a crash between a
				// compaction copy and the old segment's unlink): the
				// newest location wins.
				ds.deadenLocked(old)
				ds.dataBytes -= int64(old.n)
			}
			ds.index[sum] = recLoc{seg: id, off: off, n: length}
			seg.live += rs
			ds.dataBytes += int64(length)
		}
		off += rs
	}
	seg.size = fileSize
	return seg, nil
}

// deadenLocked moves one record's bytes from live to dead in its
// segment accounting (caller holds mu, or is single-threaded open).
func (ds *DiskStore) deadenLocked(loc recLoc) {
	if s, ok := ds.segs[loc.seg]; ok {
		rs := recordSize(loc.n)
		s.live -= rs
		s.dead += rs
	}
}

// newActiveLocked seals nothing and opens the next segment file for
// appending (caller holds mu, or is single-threaded open).
func (ds *DiskStore) newActiveLocked() error {
	id := ds.nextID
	ds.nextID++
	f, err := os.OpenFile(filepath.Join(ds.dir, segName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	seg := &segment{id: id, f: f}
	ds.segs[id] = seg
	ds.active = seg
	return nil
}

// sealActiveLocked fsyncs the active segment and rotates to a new one
// (caller holds mu). Sealed files are never written again, which is
// what confines torn records to the final segment.
func (ds *DiskStore) sealActiveLocked() error {
	if !ds.opts.NoSync {
		if err := ds.active.f.Sync(); err != nil {
			return err
		}
		ds.fsyncs.Add(1)
	}
	// Everything appended so far lives in sealed, synced files.
	maxLSN(&ds.syncedLSN, ds.appendLSN.Load())
	return ds.newActiveLocked()
}

// maxLSN raises v to at least lsn.
func maxLSN(v *atomic.Int64, lsn int64) {
	for {
		cur := v.Load()
		if cur >= lsn || v.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// appendLocked writes one record — its 24-byte header, then the
// payload exactly as handed in, no staging copy — to the active
// segment, rotating first if it is full (caller holds mu). A crash
// between the two writes leaves a header without its payload, which
// recovery discards like any other torn tail.
func (ds *DiskStore) appendLocked(hdr, payload []byte) (recLoc, error) {
	if ds.active.size >= ds.opts.SegmentSize {
		if err := ds.sealActiveLocked(); err != nil {
			return recLoc{}, err
		}
	}
	seg := ds.active
	if _, err := seg.f.WriteAt(hdr, seg.size); err != nil {
		return recLoc{}, err
	}
	if len(payload) > 0 {
		if _, err := seg.f.WriteAt(payload, seg.size+recHeaderSize); err != nil {
			return recLoc{}, err
		}
	}
	rs := recHeaderSize + int64(len(payload))
	loc := recLoc{seg: seg.id, off: seg.size, n: uint32(len(payload)), lsn: ds.appendLSN.Add(rs)}
	seg.size += rs
	return loc, nil
}

// syncTo blocks until an fsync has covered lsn. Writers arriving
// while another writer's fsync is in flight queue on syncMu and
// usually find their record already covered when they get the lock —
// the group commit that keeps fsync count sublinear in writer count.
func (ds *DiskStore) syncTo(lsn int64) error {
	if ds.opts.NoSync {
		return nil
	}
	if ds.syncedLSN.Load() >= lsn {
		return nil
	}
	ds.syncMu.Lock()
	defer ds.syncMu.Unlock()
	if ds.syncedLSN.Load() >= lsn {
		return nil
	}
	ds.mu.RLock()
	f := ds.active.f
	cover := ds.appendLSN.Load()
	ds.mu.RUnlock()
	if fault := fsyncFault.Load(); fault != nil {
		if err := (*fault)(ds); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	ds.fsyncs.Add(1)
	// Records at or below cover sit either in the file just synced or
	// in a segment that was fsynced when it was sealed.
	maxLSN(&ds.syncedLSN, cover)
	return nil
}

// fsyncFault, when set, runs before every group-commit fsync and can
// stall it or fail it the way the syscall would (tests).
var fsyncFault atomic.Pointer[func(*DiskStore) error]

// PutCtx implements ChunkStore. It returns only after the record is
// fsync-covered, so an acknowledged chunk survives SIGKILL; a put that
// belongs to a request with a sync group leaves that fsync to the
// request. The locked append and the group-commit fsync wait are
// separate spans, so a slow write shows whether the time went to lock
// contention / segment I/O or to riding someone else's fsync group. A
// put whose context proves an ingress already verified these bytes
// (see verifyPut) is appended as received — carried header, caller's
// payload.
func (ds *DiskStore) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	v, err := verifyPut(ctx, sum, data)
	if err != nil {
		return err
	}
	hdr := v.header(sum, data)
	ds.puts.Add(1)
	ds.bytesStored.Add(int64(len(data)))

	app := tracing.ChildFromContext(ctx, tracing.CompDisk, tracing.SpanDiskAppend)
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		app.End()
		return fmt.Errorf("storage: diskstore: closed")
	}
	loc, dup := ds.index[sum]
	if !dup {
		if loc, err = ds.appendLocked(hdr[:], data); err != nil {
			ds.mu.Unlock()
			app.EndErr(err)
			return err
		}
		ds.index[sum] = loc
		ds.segs[loc.seg].live += recordSize(loc.n)
		ds.dataBytes += int64(len(data))
	}
	ds.mu.Unlock()
	app.End()
	if dup {
		ds.dedupHits.Add(1)
	}
	// A dedup hit waits as well: the copy it found may still be owed its
	// writer's fsync, and this put must not be acknowledged ahead of it.
	if deferSync(ctx, ds, loc.lsn) {
		return nil
	}
	fs := tracing.ChildFromContext(ctx, tracing.CompDisk, tracing.SpanDiskFsync)
	err = ds.syncTo(loc.lsn)
	fs.EndErr(err)
	return err
}

// GetCtx implements ChunkStore, verifying the record checksum on the
// way out so on-disk corruption is surfaced rather than served. The
// read is one span.
func (ds *DiskStore) GetCtx(ctx context.Context, sum Sum) (_ []byte, err error) {
	if sp := tracing.ChildFromContext(ctx, tracing.CompDisk, tracing.SpanDiskRead); sp != nil {
		defer func() { sp.EndErr(err) }()
	}
	rec, err := ds.record(sum)
	if err != nil {
		return nil, err
	}
	return rec[recHeaderSize:], nil
}

// record reads sum's whole on-disk record, header and payload, and
// checks it against the stored CRC.
func (ds *DiskStore) record(sum Sum) ([]byte, error) {
	ds.mu.RLock()
	loc, ok := ds.index[sum]
	if !ok {
		ds.mu.RUnlock()
		return nil, ErrNotFound
	}
	seg := ds.segs[loc.seg]
	seg.pins.Add(1)
	ds.mu.RUnlock()
	defer seg.pins.Add(-1)

	buf := make([]byte, recordSize(loc.n))
	if _, err := seg.f.ReadAt(buf, loc.off); err != nil {
		return nil, err
	}
	crc := crc32.ChecksumIEEE(buf[:20])
	crc = crc32.Update(crc, crc32.IEEETable, buf[recHeaderSize:])
	if binary.LittleEndian.Uint32(buf[20:24]) != crc {
		return nil, fmt.Errorf("storage: diskstore: on-disk corruption for %s", sum)
	}
	return buf, nil
}

// GetReaderCtx implements ChunkStore: it returns a streaming view
// over the pinned record region of the segment file instead of
// materializing the payload. The pin is held until the reader is
// Closed, so compaction keeps the file open (and its bytes valid,
// even after an unlink) for as long as the response is in flight. The
// disk span covers only the lookup and header read; the payload
// streams under the caller's span. Unlike GetCtx, the payload CRC is
// not verified up front — ChunkReader.StreamTo folds the check into
// the copy loop, and binary-dialect receivers re-verify the frame CRC
// end to end.
func (ds *DiskStore) GetReaderCtx(ctx context.Context, sum Sum) (_ *ChunkReader, err error) {
	if sp := tracing.ChildFromContext(ctx, tracing.CompDisk, tracing.SpanDiskRead); sp != nil {
		defer func() { sp.EndErr(err) }()
	}
	ds.mu.RLock()
	if ds.closed {
		ds.mu.RUnlock()
		return nil, errReaderClosed
	}
	loc, ok := ds.index[sum]
	if !ok {
		ds.mu.RUnlock()
		return nil, ErrNotFound
	}
	seg := ds.segs[loc.seg]
	seg.pins.Add(1)
	ds.mu.RUnlock()
	ds.streamReads.Add(1)

	// One 24-byte pread fetches the stored CRC (so the streaming copy
	// can verify without a second pass) and sanity-checks the header
	// against the index before any payload byte is served.
	var hdr [recHeaderSize]byte
	if _, err := seg.f.ReadAt(hdr[:], loc.off); err != nil {
		seg.pins.Add(-1)
		return nil, err
	}
	var hsum Sum
	copy(hsum[:], hdr[:16])
	if hsum != sum || binary.LittleEndian.Uint32(hdr[16:20]) != loc.n {
		seg.pins.Add(-1)
		return nil, fmt.Errorf("storage: diskstore: on-disk corruption for %s", sum)
	}
	stored := binary.LittleEndian.Uint32(hdr[20:24])
	hdrCRC := crc32.ChecksumIEEE(hdr[:20])
	release := func() { seg.pins.Add(-1) }
	return newDiskReader(seg.f, loc.off, int64(loc.n), stored, hdrCRC, release), nil
}

// Has implements ChunkStore. A record still waiting for its fsync is
// not reported: Has answers "may an upload that needs this chunk be
// committed", and acknowledged must mean durable.
func (ds *DiskStore) Has(sum Sum) bool {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	loc, ok := ds.index[sum]
	return ok && (ds.opts.NoSync || loc.lsn <= ds.syncedLSN.Load())
}

// Stats implements ChunkStore. Chunks/Bytes are rebuilt from the
// segment scan on open; the Put counters restart at zero per process.
func (ds *DiskStore) Stats() StoreStats {
	ds.mu.RLock()
	chunks := len(ds.index)
	bytes := ds.dataBytes
	ds.mu.RUnlock()
	return StoreStats{
		Chunks:      chunks,
		Bytes:       bytes,
		Puts:        ds.puts.Load(),
		DedupHits:   ds.dedupHits.Load(),
		BytesStored: ds.bytesStored.Load(),
	}
}

// Delete appends a tombstone (durable like any other record) and
// marks the victim's bytes dead for the compactor.
func (ds *DiskStore) Delete(sum Sum) error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return fmt.Errorf("storage: diskstore: closed")
	}
	loc, ok := ds.index[sum]
	if !ok {
		ds.mu.Unlock()
		return ErrNotFound
	}
	var hdr [recHeaderSize]byte
	encodeHeader(hdr[:], sum, tombstoneLen, nil)
	tomb, err := ds.appendLocked(hdr[:], nil)
	if err != nil {
		ds.mu.Unlock()
		return err
	}
	delete(ds.index, sum)
	ds.deadenLocked(loc)
	ds.dataBytes -= int64(loc.n)
	ds.segs[ds.active.id].dead += recHeaderSize // the tombstone itself is never live
	ds.mu.Unlock()
	return ds.syncTo(tomb.lsn)
}

// compactableLocked lists sealed segments whose live ratio is below
// the threshold (caller holds mu). Empty sealed segments qualify too.
func (ds *DiskStore) compactableLocked() []uint32 {
	var ids []uint32
	for id, s := range ds.segs {
		if s == ds.active || s.size == 0 {
			continue
		}
		if float64(s.live)/float64(s.size) < ds.opts.CompactBelow {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Compact rewrites every sealed segment whose live ratio has fallen
// below CompactBelow, copying surviving records into the active
// segment and unlinking the old file. It returns the number of
// segments reclaimed. Safe to run concurrently with reads, writes,
// and even another Compact: every record move re-checks the index
// under the lock, so racing compactors skip work instead of
// duplicating it.
func (ds *DiskStore) Compact() (int, error) {
	ds.mu.RLock()
	ids := ds.compactableLocked()
	ds.mu.RUnlock()

	reclaimed := 0
	for _, id := range ids {
		if err := ds.compactSegment(id); err != nil {
			return reclaimed, err
		}
		reclaimed++
		ds.compactions.Add(1)
	}
	return reclaimed, nil
}

// compactSegment moves one sealed segment's live records into the
// active segment and removes the file.
func (ds *DiskStore) compactSegment(id uint32) error {
	// Snapshot the live records currently addressed in this segment.
	ds.mu.RLock()
	seg, ok := ds.segs[id]
	if !ok || seg == ds.active {
		ds.mu.RUnlock()
		return nil
	}
	type rec struct {
		sum Sum
		loc recLoc
	}
	var live []rec
	for sum, loc := range ds.index {
		if loc.seg == id {
			live = append(live, rec{sum, loc})
		}
	}
	ds.mu.RUnlock()

	var maxLSNCopied int64
	for _, r := range live {
		raw, err := ds.record(r.sum)
		if err != nil {
			if err == ErrNotFound {
				continue // deleted since the snapshot
			}
			return err
		}
		ds.mu.Lock()
		cur, ok := ds.index[r.sum]
		if !ok || cur != r.loc {
			ds.mu.Unlock() // deleted or already moved; nothing to do
			continue
		}
		// The record moves verbatim, stored CRC included.
		loc, err := ds.appendLocked(raw[:recHeaderSize], raw[recHeaderSize:])
		if err != nil {
			ds.mu.Unlock()
			return err
		}
		maxLSNCopied = loc.lsn
		// The original stays on disk until the copies are synced, so the
		// chunk is exactly as durable as it was before the move.
		loc.lsn = r.loc.lsn
		ds.index[r.sum] = loc
		ds.segs[loc.seg].live += recordSize(loc.n)
		ds.deadenLocked(r.loc)
		ds.mu.Unlock()
	}
	// The copies must be durable before the originals disappear,
	// otherwise a crash right after the unlink could lose live chunks.
	if maxLSNCopied > 0 {
		if err := ds.syncTo(maxLSNCopied); err != nil {
			return err
		}
	}

	ds.mu.Lock()
	if ds.segs[id] != seg || seg == ds.active {
		ds.mu.Unlock()
		return nil
	}
	delete(ds.segs, id)
	ds.mu.Unlock()

	if err := os.Remove(filepath.Join(ds.dir, segName(id))); err != nil && !os.IsNotExist(err) {
		return err
	}
	// Readers that grabbed the segment before the index swap may still
	// be mid-ReadAt on the (now unlinked) file; wait them out before
	// closing the descriptor.
	for seg.pins.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	return seg.f.Close()
}

// Close fsyncs the active segment and releases every file handle.
func (ds *DiskStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return nil
	}
	ds.closed = true
	var first error
	if !ds.opts.NoSync {
		if err := ds.active.f.Sync(); err != nil {
			first = err
		} else {
			ds.fsyncs.Add(1)
		}
	}
	for _, s := range ds.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Range calls f for every live chunk with its payload size, stopping
// early if f returns false. Used to seed tier placement from the
// recovered index after a restart.
func (ds *DiskStore) Range(f func(sum Sum, size int64) bool) {
	ds.mu.RLock()
	type entry struct {
		sum  Sum
		size int64
	}
	entries := make([]entry, 0, len(ds.index))
	for sum, loc := range ds.index {
		entries = append(entries, entry{sum, int64(loc.n)})
	}
	ds.mu.RUnlock()
	for _, e := range entries {
		if !f(e.sum, e.size) {
			return
		}
	}
}

// DiskStats reports the segment-level state of the store.
type DiskStats struct {
	Segments    int           // segment files on disk
	LiveBytes   int64         // record bytes still addressed by the index
	DeadBytes   int64         // record bytes awaiting compaction
	Fsyncs      int64         // fsync syscalls issued (group-committed)
	Compactions int64         // segments rewritten and reclaimed
	StreamReads int64         // zero-copy streaming reads served
	Recovery    time.Duration // index rebuild time at open
	Truncated   int64         // torn-tail bytes discarded at open
}

// DiskStats returns a snapshot of the on-disk accounting.
func (ds *DiskStore) DiskStats() DiskStats {
	ds.mu.RLock()
	st := DiskStats{
		Segments:    len(ds.segs),
		Fsyncs:      ds.fsyncs.Load(),
		Compactions: ds.compactions.Load(),
		StreamReads: ds.streamReads.Load(),
		Recovery:    ds.recovery,
		Truncated:   ds.truncated,
	}
	for _, s := range ds.segs {
		st.LiveBytes += s.live
		st.DeadBytes += s.dead
	}
	ds.mu.RUnlock()
	return st
}
