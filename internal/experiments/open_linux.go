package experiments

import (
	"syscall"
	"unsafe"
)

// atFDCWD is Linux's AT_FDCWD: openat resolves a relative path
// against the working directory, as open does.
const atFDCWD = -100

// openRead opens the NUL-terminated path read-only with openat, which
// reads the path bytes where they lie: syscall.Open would first copy a
// string path into a fresh NUL-terminated slice.
func openRead(path []byte) (int, error) {
	cwd := atFDCWD
	fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(cwd), uintptr(unsafe.Pointer(&path[0])),
		uintptr(syscall.O_RDONLY|syscall.O_CLOEXEC), 0, 0, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}
