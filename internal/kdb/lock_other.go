//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package kdb

// dirLocking reports that a writer's directory lock is enforced here.
const dirLocking = false

// lockDir on platforms without flock takes no lock: there, keeping one
// writer per directory is left to the operator.
func lockDir(dir string) (unlock func() error, err error) {
	return func() error { return nil }, nil
}
