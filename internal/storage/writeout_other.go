//go:build !linux || arm

package storage

import "os"

// writeOutRange has no portable early write-out to ask for here: the
// fsync that follows writes the whole range, as it always did.
func writeOutRange(*os.File, int64, int64) bool { return false }
