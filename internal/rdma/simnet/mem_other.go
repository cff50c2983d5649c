//go:build !linux

package simnet

// newPoolMemory allocates an MN's zeroed pool memory.
func newPoolMemory(n uint64) []byte { return make([]byte, n) }
