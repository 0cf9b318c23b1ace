//go:build !unix

package durable

import (
	"fmt"
	"os"
)

// AcquireLock on platforms without flock(2) falls back to
// create-exclusive semantics: the lock file's existence is the lock.
// Unlike the flock path a crashed holder leaves the file behind, so
// the caller may need to remove a stale lock by hand.
func AcquireLock(path string) (*Lock, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("durable: %s: %w", path, ErrLocked)
		}
		return nil, fmt.Errorf("durable: lock %s: %w", path, err)
	}
	return &Lock{f: f, path: path}, nil
}

// Release drops the lock and removes the lock file. Idempotent.
func (l *Lock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	cerr := f.Close()
	rerr := os.Remove(l.path)
	if cerr != nil {
		return cerr
	}
	return rerr
}
