//go:build linux && (amd64 || arm64)

package node

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE, which package syscall
// does not name: start writeback of the range's dirty pages, wait for
// none of it.
const syncFileRangeWrite = 0x2

// startWriteback is sync_file_range(2) over f's bytes [off, off+n)
// with SYNC_FILE_RANGE_WRITE. On these platforms the call's offset and
// length travel as plain 64-bit arguments.
func startWriteback(f *os.File, off, n int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var werr error
	if err := rc.Control(func(fd uintptr) {
		werr = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	}); err != nil {
		return err
	}
	return os.NewSyscallError("sync_file_range", werr)
}
