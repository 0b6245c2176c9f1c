//go:build linux && aio_direct

package aio

import (
	"os"
	"syscall"
)

// posixFadvRandom is POSIX_FADV_RANDOM: tell the kernel the file will
// be read in a non-sequential pattern, which disables readahead.
const posixFadvRandom = 1

// Open opens a shard file for the uncached fast path: cold shard
// sweeps touch each byte exactly once, so kernel readahead beyond the
// decoders' own reads is wasted bandwidth that competes with the other
// IODepth-1 reads in flight. Readahead is disabled with
// posix_fadvise(POSIX_FADV_RANDOM); the advice is best-effort, so a
// filesystem that rejects it (or a kernel without fadvise) silently
// falls back to default readahead rather than failing the sweep.
//
// A full O_DIRECT path is the next step behind this same build tag.
// The v2 base and delta decoders already read a whole file with one
// read from offset 0, but into pooled buffers of exactly the file's
// size: O_DIRECT additionally needs those buffers allocated on a
// logical-block boundary and rounded up to whole blocks (the tail
// read then returns short). The v1 decoder still reads in 64 KiB
// chunks behind an 8-byte header, so its offsets are not block
// aligned. For now the fast path only drops readahead.
func Open(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	_, _, _ = syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, posixFadvRandom, 0, 0)
	return f, nil
}
