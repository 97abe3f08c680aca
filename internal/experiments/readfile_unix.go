//go:build unix

package experiments

import (
	"os"
	"syscall"
)

// readArtifact reads the file at prefix+name into buf with one open,
// reads until end of file and one close, and returns the bytes read.
// It skips what os.ReadFile adds on every call: registering the file
// with the runtime poller, an fstat to size the buffer and a fresh
// allocation of that size. The path is rendered NUL-terminated into a
// stack buffer, which openat reads as it is on Linux, so no path
// string is allocated. A path too long for that buffer, and a file
// that fills buf and so may be longer, are read whole with os.ReadFile.
func readArtifact(prefix string, name, buf []byte) ([]byte, error) {
	var path [512]byte
	if len(prefix)+len(name) >= len(path) {
		return os.ReadFile(prefix + string(name))
	}
	end := copy(path[:], prefix)
	end += copy(path[end:], name)
	path[end] = 0
	var fd int
	var err error
	for {
		fd, err = openRead(path[:end+1])
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
		return os.ReadFile(prefix + string(name))
	}
	return buf[:n], nil
}
