package storage

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// metaSnapshot is the JSON form of the metadata server's durable
// state. Front-end assignment and counters are runtime state and are
// not persisted.
type metaSnapshot struct {
	Version int            `json:"version"`
	URLSeq  int64          `json:"url_seq"`
	Files   []fileSnapshot `json:"files"`
	Users   []userSnapshot `json:"users"`
}

type fileSnapshot struct {
	URL       string   `json:"url"`
	Name      string   `json:"name"`
	Size      int64    `json:"size"`
	FileMD5   string   `json:"file_md5"`
	ChunkMD5s []string `json:"chunk_md5s"`
	ChainMD5s []string `json:"chain_md5s,omitempty"`
	Committed bool     `json:"committed"`
}

type userSnapshot struct {
	UserID uint64   `json:"user_id"`
	URLs   []string `json:"urls"`
}

const snapshotVersion = 1

// snapshotLocked builds the serializable form of the durable state
// (caller holds mu in either mode). The WAL checkpoint and the
// standby snapshot transfer reuse it, so every durability path shares
// one codec.
func (m *Metadata) snapshotLocked() metaSnapshot {
	snap := metaSnapshot{Version: snapshotVersion, URLSeq: m.urlSeq}
	for url, f := range m.byURL {
		_, committed := m.byMD5[f.FileMD5]
		fs := fileSnapshot{
			URL:       url,
			Name:      f.Name,
			Size:      f.Size,
			FileMD5:   f.FileMD5.String(),
			ChainMD5s: sumStrings(f.Chain),
			Committed: committed,
		}
		for _, c := range f.ChunkMD5s {
			fs.ChunkMD5s = append(fs.ChunkMD5s, c.String())
		}
		snap.Files = append(snap.Files, fs)
	}
	for uid, ns := range m.users {
		us := userSnapshot{UserID: uid}
		for url := range ns {
			us.URLs = append(us.URLs, url)
		}
		snap.Users = append(snap.Users, us)
	}
	return snap
}

// restoreLocked rebuilds the in-memory state from a snapshot (caller
// holds mu and has emptied or just-created the maps).
func (m *Metadata) restoreLocked(snap metaSnapshot) error {
	if snap.Version != snapshotVersion {
		return fmt.Errorf("storage: restore: unsupported snapshot version %d", snap.Version)
	}
	m.urlSeq = snap.URLSeq
	for _, fs := range snap.Files {
		sum, err := ParseSum(fs.FileMD5)
		if err != nil {
			return fmt.Errorf("storage: restore file %q: %w", fs.URL, err)
		}
		f := &FileMeta{Name: fs.Name, Size: fs.Size, FileMD5: sum, Chain: parseChain(fs.ChainMD5s, fs.Size), URL: fs.URL}
		for _, c := range fs.ChunkMD5s {
			cs, err := ParseSum(c)
			if err != nil {
				return fmt.Errorf("storage: restore chunk of %q: %w", fs.URL, err)
			}
			f.ChunkMD5s = append(f.ChunkMD5s, cs)
		}
		m.byURL[fs.URL] = f
		if fs.Committed {
			m.byMD5[sum] = f
		}
	}
	for _, us := range snap.Users {
		for _, url := range us.URLs {
			f, ok := m.byURL[url]
			if !ok {
				return fmt.Errorf("storage: restore: user %d links unknown URL %q", us.UserID, url)
			}
			m.linkLocked(us.UserID, f)
		}
	}
	return nil
}

// syncDir fsyncs a directory, making previously-renamed entries in it
// durable. Filesystems that reject directory fsync (some network or
// FUSE mounts) are tolerated: the rename is still atomic, only its
// durability timing is weaker there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (os.IsPermission(err) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}
