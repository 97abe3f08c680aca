//go:build unix && !linux

package experiments

import "syscall"

// openRead opens the NUL-terminated path read-only.
func openRead(path []byte) (int, error) {
	return syscall.Open(string(path[:len(path)-1]), syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
}
