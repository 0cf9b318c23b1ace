package durable

import (
	"errors"
	"os"
)

// ErrLocked is the sentinel AcquireLock returns when another holder
// has the lock; callers report it as "already running" (pdbmerge exits
// cliutil.ExitLocked) rather than as an I/O failure.
var ErrLocked = errors.New("lock held by another process")

// Lock is a held advisory lock file. The zero value is released.
type Lock struct {
	f    *os.File
	path string
}

// Path reports the lock file's location.
func (l *Lock) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}
