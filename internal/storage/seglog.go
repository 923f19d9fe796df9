package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// segLog is the append-only segment log under both durable stores,
// DiskStore and MetaWAL: the segment files of one directory, the
// recovery scan over them, segment creation and sealing, and the group
// commit. The owner keeps what differs: the header key, what a record
// means, when to rotate, and per-segment accounting.
//
// A record is key | len uint32 | crc32 uint32 | payload, the CRC over
// the header up to itself plus the payload; a len of tombstoneLen marks
// a header-only record. The owner seals a segment before it stops
// writing it, so a crash can tear only the final segment.
//
// appendLSN counts the bytes the owner has appended since open, and
// syncedLSN how far fsyncs cover them: a record is durable once
// syncedLSN reaches the LSN its append produced. Records found at open
// are durable already, so both start at zero.
type segLog struct {
	dir     string
	pattern string // segment file name, with the id as a %08d verb
	hdrSize int64
	maxLen  uint32 // largest payload a valid header claims
	next    uint32 // id of the next created segment (owner's lock)
	// active is the segment being appended to, nil once closed.
	active atomic.Pointer[os.File]

	appendLSN atomic.Int64
	syncedLSN atomic.Int64
	// syncMu guards syncing (a group-commit fsync is in flight);
	// syncDone, on syncMu, is broadcast when that fsync ends.
	syncMu   sync.Mutex
	syncDone sync.Cond
	syncing  bool

	fsyncs    atomic.Int64
	truncated int64 // torn-tail bytes discarded at open
}

func newSegLog(dir, pattern string, hdrSize int64, maxLen, first uint32) *segLog {
	l := &segLog{dir: dir, pattern: pattern, hdrSize: hdrSize, maxLen: maxLen, next: first}
	l.syncDone.L = &l.syncMu
	return l
}

func (l *segLog) path(id uint32) string { return filepath.Join(l.dir, fmt.Sprintf(l.pattern, id)) }

// frameCRC is the checksum a record header ends with.
func frameCRC(hdr, payload []byte) uint32 {
	crc := crc32.ChecksumIEEE(hdr[:len(hdr)-4])
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// ids lists the segment files in id order and moves next past them.
func (l *segLog) ids() ([]uint32, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var ids []uint32
	for _, e := range entries {
		var id uint32
		if _, err := fmt.Sscanf(e.Name(), l.pattern, &id); err == nil {
			ids = append(ids, id)
			l.next = max(l.next, id+1)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// scan hands each CRC-valid record of segment id, in order, to visit,
// which may reject it; payload is reused across calls. A bad or
// rejected record ends the scan: in the final segment it is the torn
// tail of a crash and is truncated away, so appends resume on a record
// boundary; in a sealed segment no crash explains it, and scan fails.
// It returns the file, open for writing when final, and its size.
func (l *segLog) scan(id uint32, final bool, visit func(off int64, hdr, payload []byte) bool) (f *os.File, size int64, err error) {
	flag := os.O_RDONLY
	if final {
		flag = os.O_RDWR
	}
	if f, err = os.OpenFile(l.path(id), flag, 0); err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			f = nil
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return f, 0, err
	}
	size = info.Size()
	hdr := make([]byte, l.hdrSize)
	var payload []byte
	for off := int64(0); off < size; {
		ok, n := false, int64(0)
		if size-off >= l.hdrSize {
			if _, err := f.ReadAt(hdr, off); err != nil {
				return f, 0, err
			}
			length := binary.LittleEndian.Uint32(hdr[l.hdrSize-8:])
			if length != tombstoneLen {
				n = int64(length)
			}
			if (length == tombstoneLen || length <= l.maxLen) && off+l.hdrSize+n <= size {
				if n > int64(cap(payload)) {
					payload = make([]byte, n)
				}
				payload = payload[:n]
				if _, err := f.ReadAt(payload, off+l.hdrSize); err != nil {
					return f, 0, err
				}
				ok = frameCRC(hdr, payload) == binary.LittleEndian.Uint32(hdr[l.hdrSize-4:]) && visit(off, hdr, payload)
			}
		}
		if !ok {
			if !final {
				return f, 0, fmt.Errorf("corrupt record in sealed segment %s at offset %d", filepath.Base(l.path(id)), off)
			}
			l.truncated += size - off
			return f, off, os.Truncate(l.path(id), off)
		}
		off += l.hdrSize + n
	}
	return f, size, nil
}

// create makes the next segment file the active one, and fsyncs the
// directory so that a power cut cannot drop the entry of a segment
// holding acknowledged records (owner's lock).
func (l *segLog) create() (uint32, error) {
	id := l.next
	l.next++
	f, err := os.OpenFile(l.path(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return 0, err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return 0, err
	}
	l.active.Store(f)
	return id, nil
}

// seal fsyncs the active segment, which the owner is about to stop
// writing, so every record appended so far is durable (owner's lock).
func (l *segLog) seal() error {
	if err := l.active.Load().Sync(); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	maxLSN(&l.syncedLSN, l.appendLSN.Load())
	return nil
}

// close seals the active segment and ends group commits; the owner
// closes the files (owner's lock).
func (l *segLog) close() error {
	err := l.seal()
	l.active.Store(nil)
	return err
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

// syncTo blocks until an fsync has covered lsn. One caller at a time
// runs the group-commit fsync, which covers every record appended
// before it starts; callers arriving meanwhile wait for it to end. Then
// they all wake: those it covered return at once, and one of the rest
// runs the next fsync for itself and everyone queued behind it — the
// group commit that keeps fsync count sublinear in writer count. (A
// covered caller that queued for a lock instead would sit out the next
// caller's whole fsync before it could return and append again, and
// each fsync would cover about two appends.)
func (l *segLog) syncTo(lsn int64) error {
	if l.syncedLSN.Load() >= lsn {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for l.syncedLSN.Load() < lsn {
		if l.syncing {
			l.syncDone.Wait()
			continue
		}
		l.syncing = true
		l.syncMu.Unlock()
		err := l.syncTail()
		l.syncMu.Lock()
		l.syncing = false
		l.syncDone.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// syncTail fsyncs the active segment and advances syncedLSN over every
// record appended before it started.
func (l *segLog) syncTail() error {
	// cover is read first: records it counts in a segment rotated away
	// since were fsynced by that segment's seal.
	cover := l.appendLSN.Load()
	f := l.active.Load()
	if f == nil {
		return errors.New("storage: segment log closed")
	}
	if fault := fsyncFault.Load(); fault != nil {
		if err := (*fault)(l); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		// A seal and close of f since it was loaded covered cover already.
		if errors.Is(err, os.ErrClosed) && l.syncedLSN.Load() >= cover {
			return nil
		}
		return err
	}
	l.fsyncs.Add(1)
	maxLSN(&l.syncedLSN, cover)
	return nil
}

// fsyncFault, when set, runs before every group-commit fsync and can
// stall it or fail it the way the syscall would (tests).
var fsyncFault atomic.Pointer[func(*segLog) error]
