// Package durable provides crash-consistent file output for the PDT
// tools. Every writer in the tree used to write in place with
// os.Create/os.WriteFile, so a crash, kill -9, or full disk could
// leave a torn file at the final path. durable stages output to a
// same-directory temporary file, fsyncs it, renames it over the
// target, and fsyncs the directory — so at every instant the final
// path holds either nothing, the previous complete bytes, or the new
// complete bytes, never a prefix.
//
// The package has three pieces:
//
//   - Writer / WriteFile: the atomic durable write primitive. Close
//     commits; Abort (or a failed commit) removes the staging file and
//     never disturbs existing output.
//   - Lock / AcquireLock: an advisory flock-based lock file so two
//     concurrent writers (e.g. two pdbmerge runs on one output) fail
//     fast instead of interleaving.
//   - Journal: a content-addressed result store behind the pdbd disk
//     cache and incremental pdblint (see journal.go).
//
// All mutating filesystem operations go through the FS interface, in
// the order they hit the disk. That is the kill-point seam: the
// fault-injection harness (internal/faultio's CrashFS) implements FS
// to cut the write stream at a chosen byte or operation and prove the
// never-torn property at every crash site.
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

// File is the writable handle an FS hands out. Sync must flush the
// file's contents to stable storage (fsync).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the mutating filesystem operations the atomic write
// path performs. Implementations must be safe for concurrent use.
type FS interface {
	// OpenFile opens a file with the given flags; with os.O_RDONLY and
	// a directory path it opens the directory for fsync.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// tmpSeq distinguishes staging names within a process; the PID
// distinguishes processes sharing a directory.
var tmpSeq atomic.Int64

// tmpName builds a same-directory staging path for target: rename(2)
// is only atomic within one filesystem, so the temp file must live
// next to its destination.
func tmpName(target string) string {
	dir, base := filepath.Split(target)
	return fmt.Sprintf("%s.%s.tmp.%d.%d", dir, base, os.Getpid(), tmpSeq.Add(1))
}

// Writer stages bytes for one target path. Close commits the staged
// bytes atomically; Abort discards them. Either way the target path
// is never left holding a prefix of the new content.
type Writer struct {
	fsys FS
	f    File
	path string // final target
	tmp  string // same-directory staging file
	done bool   // committed or aborted
}

// Create opens an atomic durable writer for path on the real
// filesystem.
func Create(path string) (*Writer, error) { return CreateFS(OS, path) }

// CreateFS is Create on an explicit filesystem (the kill-point seam).
func CreateFS(fsys FS, path string) (*Writer, error) {
	tmp := tmpName(path)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: staging %s: %w", path, err)
	}
	return &Writer{fsys: fsys, f: f, path: path, tmp: tmp}, nil
}

// Write appends to the staging file.
func (w *Writer) Write(p []byte) (int, error) { return w.f.Write(p) }

// Close commits: fsync the staging file, close it, rename it over the
// target, and fsync the directory so the rename itself is durable. On
// any failure the staging file is removed and the target is left
// untouched.
func (w *Writer) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		w.fsys.Remove(w.tmp)
		return fmt.Errorf("durable: sync %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		w.fsys.Remove(w.tmp)
		return fmt.Errorf("durable: close %s: %w", w.path, err)
	}
	if err := w.fsys.Rename(w.tmp, w.path); err != nil {
		w.fsys.Remove(w.tmp)
		return fmt.Errorf("durable: commit %s: %w", w.path, err)
	}
	if err := syncDir(w.fsys, filepath.Dir(w.path)); err != nil {
		// The rename has already happened; the target holds the new
		// bytes but their directory entry may not survive a power cut.
		return fmt.Errorf("durable: sync dir of %s: %w", w.path, err)
	}
	return nil
}

// Abort discards the staged bytes without touching the target. Safe
// to call after Close (it becomes a no-op), so callers can
// `defer w.Abort()` and commit explicitly.
func (w *Writer) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	cerr := w.f.Close()
	rerr := w.fsys.Remove(w.tmp)
	return errors.Join(cerr, rerr)
}

// WriteFile atomically and durably replaces path with data: the
// crash-consistent os.WriteFile.
func WriteFile(path string, data []byte, perm fs.FileMode) error {
	return WriteFileFS(OS, path, data, perm)
}

// WriteFileFS is WriteFile on an explicit filesystem.
func WriteFileFS(fsys FS, path string, data []byte, perm fs.FileMode) error {
	tmp := tmpName(path)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
	if err != nil {
		return fmt.Errorf("durable: staging %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("durable: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: close %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: commit %s: %w", path, err)
	}
	if err := syncDir(fsys, filepath.Dir(path)); err != nil {
		return fmt.Errorf("durable: sync dir of %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-committed rename survives a
// power cut. Filesystems that refuse directory fsync (some network
// mounts) degrade gracefully: EINVAL/ENOTSUP are ignored.
func syncDir(fsys FS, dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil && !errors.Is(serr, errors.ErrUnsupported) &&
		!errors.Is(serr, syscall.EINVAL) && !errors.Is(serr, syscall.ENOTSUP) {
		return serr
	}
	return cerr
}
