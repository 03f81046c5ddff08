//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package kdb

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// dirLocking reports that a writer's directory lock is enforced here.
const dirLocking = true

// lockDir takes an exclusive advisory lock on dir itself (no lock file
// is created), failing at once when another open file holds it. The
// kernel drops the lock when the holder exits, so a killed writer
// never leaves its directory locked.
func lockDir(dir string) (unlock func() error, err error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("kdb: locking %s: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, fmt.Errorf("kdb: locking %s: %w", dir, err)
	}
	return f.Close, nil
}
