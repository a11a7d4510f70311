//go:build !(linux && (amd64 || arm64))

package node

import "os"

// startWriteback does nothing here: sync_file_range(2) is called only
// on linux/amd64 and linux/arm64 (writeback_linux.go).
func startWriteback(*os.File, int64, int64) error { return nil }
