package simnet

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// TestPoolMemoryNoHugePages checks that pool memory carries the kernel's
// no-huge-page flag, so its resident size counts only the pages written.
func TestPoolMemoryNoHugePages(t *testing.T) {
	mem := newPoolMemory(16 << 20)
	addr := uint64(uintptr(unsafe.Pointer(&mem[len(mem)/2])))
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("smaps unavailable: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uint64
		if n, _ := fmt.Sscanf(line, "%x-%x", &lo, &hi); n == 2 {
			in = lo <= addr && addr < hi
			continue
		}
		if in && strings.HasPrefix(line, "VmFlags:") {
			if !strings.Contains(line+" ", " nh ") {
				t.Fatalf("pool mapping lacks the no-huge-page flag: %s", line)
			}
			return
		}
	}
	t.Fatalf("no mapping contains the pool (scan err %v)", sc.Err())
}
