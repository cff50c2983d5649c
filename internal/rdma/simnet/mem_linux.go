package simnet

import "syscall"

// newPoolMemory allocates an MN's zeroed pool memory. A pool is large
// and sparsely written, so it opts out of transparent huge pages: with
// them, one written byte makes a whole 2 MB page resident, and the
// process's resident size would depend on how many free huge pages the
// host kernel has at the time. The advice is only a hint; an error
// leaves ordinary memory.
func newPoolMemory(n uint64) []byte {
	b := make([]byte, n)
	if n > 0 {
		_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE)
	}
	return b
}
