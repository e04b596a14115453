package mem

// PageBytes returns the bytes of the pages m has allocated.
func PageBytes(m *Memory) int { return len(allocated(m)) * pageSize }
