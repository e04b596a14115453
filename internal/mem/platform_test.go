package mem_test

import (
	"testing"

	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
)

// TestFreshServerIsSparse pins what sparse pages buy: a server platform
// maps 32 MiB of DRAM, but before anything runs on it it holds well
// under 1 MiB of pages.
func TestFreshServerIsSparse(t *testing.T) {
	if n := mem.PageBytes(platform.NewServer().Mem); n >= 1<<20 {
		t.Errorf("a fresh server holds %d KiB of pages, want < 1024 KiB", n>>10)
	}
}
