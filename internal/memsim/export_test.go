package memsim

import "unsafe"

// LineArrayBytes returns the bytes c's line arrays hold: the sum of
// capacity × element size over tags, ready, used and pref.
func LineArrayBytes(c *Cache) int64 {
	return int64(cap(c.tags))*int64(unsafe.Sizeof(c.tags[0])) +
		int64(cap(c.ready))*int64(unsafe.Sizeof(c.ready[0])) +
		int64(cap(c.used))*int64(unsafe.Sizeof(c.used[0])) +
		int64(cap(c.pref))*int64(unsafe.Sizeof(c.pref[0]))
}
