//go:build unix

package experiments

import (
	"os"
	"syscall"
)

// readArtifact reads the file at path into buf with one open, reads
// until end of file and one close, and returns the bytes read. It
// skips what os.ReadFile adds on every call: registering the file with
// the runtime poller, an fstat to size the buffer and a fresh
// allocation of that size. A file that fills buf may be longer than
// buf, so it is read again, whole, with os.ReadFile.
func readArtifact(path string, buf []byte) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	n := 0
	for n < len(buf) {
		m, err := syscall.Read(fd, buf[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			syscall.Close(fd)
			return nil, err
		}
		if m == 0 {
			break
		}
		n += m
	}
	// A read-only descriptor has nothing to flush, so a failed close
	// loses no data; close must not be retried on EINTR either.
	syscall.Close(fd)
	if n == len(buf) {
		return os.ReadFile(path)
	}
	return buf[:n], nil
}
