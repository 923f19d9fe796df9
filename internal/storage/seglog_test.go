package storage

import (
	"fmt"
	"testing"
	"time"
)

// TestGroupCommitCoveredWaiterWakes: a writer whose record the running
// fsync already covers must return when that fsync ends, not sit out
// the next writer's whole fsync. The first fsync covers r1 and r2 and
// stalls; a wait on r3 and then one on r2 arrive behind it; the first
// fsync is released and the second (r3's) stalls. The wait on r2 must
// return while the second is still stalled. Both durable stores run on
// the same group commit, so the table holds one row for each.
func TestGroupCommitCoveredWaiterWakes(t *testing.T) {
	type owner struct {
		log    *segLog
		append func(i int) int64 // appends record i unsynced, returns its LSN
		wait   func(lsn int64) error
	}
	owners := map[string]func(t *testing.T) owner{
		"DiskStore": func(t *testing.T) owner {
			ds, _ := newDiskStore(t, DiskStoreOptions{})
			return owner{
				log: ds.log,
				append: func(i int) int64 {
					data := testChunk(44, i)
					var hdr [recHeaderSize]byte
					encodeHeader(hdr[:], SumBytes(data), uint32(len(data)), data)
					ds.mu.Lock()
					defer ds.mu.Unlock()
					loc, err := ds.appendLocked(hdr[:], data)
					if err != nil {
						t.Fatal(err)
					}
					return loc.lsn
				},
				wait: ds.log.syncTo,
			}
		},
		"MetaWAL": func(t *testing.T) owner {
			m := openDurableMeta(t, t.TempDir())
			return owner{
				log: m.wal.log,
				append: func(i int) int64 {
					rec := MetaWALRecord{
						Op: walOpReserve, User: 1, URL: fmt.Sprintf("/w/%d", i),
						Name: "w", Size: 1, FileMD5: SumBytes([]byte{byte(i)}).String(),
						URLSeq: int64(i + 1),
					}
					m.mu.Lock()
					defer m.mu.Unlock()
					lsn, err := m.logApplyLocked(&rec)
					if err != nil {
						t.Fatal(err)
					}
					return lsn
				},
				wait: m.wal.WaitDurable,
			}
		},
	}
	for name, open := range owners {
		t.Run(name, func(t *testing.T) {
			o := open(t)
			entered := make(chan int, 2)
			gates := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			calls := 0
			hook := func(l *segLog) error {
				if l != o.log || calls >= len(gates) {
					return nil
				}
				// Group-commit fsyncs run one at a time, so calls needs no lock.
				n := calls
				calls++
				entered <- n
				<-gates[n]
				return nil
			}
			fsyncFault.Store(&hook)
			t.Cleanup(func() { fsyncFault.Store(nil) })
			released := 0
			release := func() {
				close(gates[released])
				released++
			}
			t.Cleanup(func() {
				for released < len(gates) {
					release()
				}
			})

			wait := func(lsn int64) chan error {
				done := make(chan error, 1)
				go func() { done <- o.wait(lsn) }()
				return done
			}
			r1, r2 := o.append(1), o.append(2)
			w1 := wait(r1)
			<-entered // the first fsync covers r1 and r2, and stalls
			r3 := o.append(3)
			w3 := wait(r3)
			// Let the r3 wait queue before the r2 wait does: a group commit
			// that hands a lock on in arrival order then runs r3's fsync
			// ahead of r2's return.
			time.Sleep(20 * time.Millisecond)
			w2 := wait(r2)
			time.Sleep(20 * time.Millisecond)

			release()
			if err := <-w1; err != nil {
				t.Fatal(err)
			}
			<-entered // r3's fsync has started, and stalls
			select {
			case err := <-w2:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the wait on r2, covered by the first fsync, is held behind the second")
			}
			release()
			if err := <-w3; err != nil {
				t.Fatal(err)
			}
		})
	}
}
