//go:build unix

package durable

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// AcquireLock takes the advisory exclusive lock file at path without
// blocking. A second acquirer — in this process or another — gets
// ErrLocked immediately, so two pdbmerge runs on one output fail fast
// instead of interleaving writes. The lock is a flock(2) on an
// O_CREATE file: it survives nothing (the kernel drops it when the
// holder dies), so a crashed run never wedges the next one, and the
// lock file itself is left in place (removing it would race a
// concurrent acquirer).
func AcquireLock(path string) (*Lock, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: lock %s: %w", path, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) || errors.Is(err, syscall.EAGAIN) {
			return nil, fmt.Errorf("durable: %s: %w", path, ErrLocked)
		}
		return nil, fmt.Errorf("durable: lock %s: %w", path, err)
	}
	return &Lock{f: f, path: path}, nil
}

// Release drops the lock. Idempotent.
func (l *Lock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	uerr := syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	cerr := f.Close()
	return errors.Join(uerr, cerr)
}
