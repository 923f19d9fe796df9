//go:build linux && !arm

package storage

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start write-out of the
// range's dirty pages that are not already under write-out, and return
// without waiting for any of it.
const syncFileRangeWrite = 0x2

// writeOutRange asks the kernel to begin writing f's bytes [off,
// off+n) to the device and returns at once. It is advice, not
// durability: it flushes no metadata and no device cache, so only the
// fsync that follows may acknowledge the bytes, and an error here
// (reported false) is one that fsync will see again. The descriptor is
// used under SyscallConn, so a concurrent Close waits for the call
// instead of freeing the number for reuse.
func writeOutRange(f *os.File, off, n int64) bool {
	rc, err := f.SyscallConn()
	if err != nil {
		return false
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	}); err != nil {
		return false
	}
	return serr == nil
}
