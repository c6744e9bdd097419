package durable

import (
	"os"
	"path/filepath"
)

// Store names the files of one durable state directory.
type Store struct {
	dir string
}

// Snapshot and journal file names within a state directory.
const (
	SnapshotName = "snapshot.blsnap"
	JournalName  = "journal.bljrnl"
)

// NewStore creates (if needed) the state directory and returns a Store
// over it.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// SnapshotPath returns the snapshot file path.
func (s *Store) SnapshotPath() string { return filepath.Join(s.dir, SnapshotName) }

// JournalPath returns the journal file path.
func (s *Store) JournalPath() string { return filepath.Join(s.dir, JournalName) }
