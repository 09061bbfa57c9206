package walstore

import (
	"io/fs"
	"os"
)

// FS is the file system a Store keeps its directory in. Every disk access
// of this package goes through one, so a test or the simulator can fail or
// tear a write by wrapping OS; the store handles what such a wrapper
// returns exactly as it handles a real I/O error.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	// OpenFile opens name for writing with os.OpenFile's flags.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs dir, so that the files created, renamed and removed in
	// it stay that way.
	SyncDir(dir string) error
}

// File is a file opened by an FS for writing.
type File interface {
	// Write must not retain p: an append hands it the store's one record
	// buffer, which the next record rewrites.
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS is the operating system's file system, the default of Options.FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a File holding a nil *os.File
	}
	return f, nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
