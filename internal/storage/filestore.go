package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FileStore is a ChunkStore persisted to a directory: each chunk lives
// in a file named by its hex digest, fanned out over 256 prefix
// subdirectories. It is safe for concurrent use and survives restarts
// (Reopen rebuilds the index by scanning the directory).
type FileStore struct {
	dir string

	mu    sync.RWMutex
	index map[Sum]int64 // digest -> size
	stats StoreStats
}

// NewFileStore opens (creating if needed) a chunk store rooted at dir
// and indexes any chunks already present.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: filestore: %w", err)
	}
	fs := &FileStore{dir: dir, index: make(map[Sum]int64)}
	if err := fs.reindex(); err != nil {
		return nil, err
	}
	return fs, nil
}

// reindex scans the directory tree and rebuilds the in-memory index.
func (fs *FileStore) reindex() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.index = make(map[Sum]int64)
	fs.stats = StoreStats{}
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub, err := os.ReadDir(filepath.Join(fs.dir, e.Name()))
		if err != nil {
			return err
		}
		for _, f := range sub {
			sum, err := ParseSum(f.Name())
			if err != nil {
				continue // foreign file; ignore
			}
			info, err := f.Info()
			if err != nil {
				return err
			}
			fs.index[sum] = info.Size()
			fs.stats.Chunks++
			fs.stats.Bytes += info.Size()
		}
	}
	return nil
}

// path returns the chunk's file path.
func (fs *FileStore) path(sum Sum) string {
	hex := sum.String()
	return filepath.Join(fs.dir, hex[:2], hex)
}

// Put implements ChunkStore. Writes are atomic (temp file + rename).
func (fs *FileStore) Put(sum Sum, data []byte) error {
	return fs.PutCtx(context.Background(), sum, data)
}

// PutCtx implements CtxStore; the context matters only for the proof
// that spares an already-verified put its hash.
func (fs *FileStore) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	if _, err := verifyPut(ctx, sum, data); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats.Puts++
	fs.stats.BytesStored += int64(len(data))
	if _, ok := fs.index[sum]; ok {
		fs.stats.DedupHits++
		return nil
	}
	p := fs.path(sum)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	fs.index[sum] = int64(len(data))
	fs.stats.Chunks++
	fs.stats.Bytes += int64(len(data))
	return nil
}

// GetCtx implements CtxStore.
func (fs *FileStore) GetCtx(ctx context.Context, sum Sum) ([]byte, error) { return fs.Get(sum) }

// Get implements ChunkStore.
func (fs *FileStore) Get(sum Sum) ([]byte, error) {
	fs.mu.RLock()
	_, ok := fs.index[sum]
	fs.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(fs.path(sum))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	if SumBytes(data) != sum {
		return nil, fmt.Errorf("storage: on-disk corruption for %s", sum)
	}
	return data, nil
}

// Has implements ChunkStore.
func (fs *FileStore) Has(sum Sum) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.index[sum]
	return ok
}

// Stats implements ChunkStore.
func (fs *FileStore) Stats() StoreStats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.stats
}

// Delete removes a chunk (used by the tiering migrator).
func (fs *FileStore) Delete(sum Sum) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	size, ok := fs.index[sum]
	if !ok {
		return ErrNotFound
	}
	if err := os.Remove(fs.path(sum)); err != nil && !os.IsNotExist(err) {
		return err
	}
	delete(fs.index, sum)
	fs.stats.Chunks--
	fs.stats.Bytes -= size
	return nil
}
