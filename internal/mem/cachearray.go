package mem

// cacheArray is a set-associative tag array with true-LRU replacement
// (the paper's caches are direct-mapped or 2-way, so LRU is exact and
// cheap). It tracks only tags and state; the simulator is timing-only
// and carries no data.
type cacheArray struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64
	valid     []bool
	dirty     []bool
	pref      []bool  // line was brought in by (or re-armed for) the prefetcher
	stamp     []int64 // LRU timestamps
	clock     int64
}

func newCacheArray(size, lineBytes, assoc int) *cacheArray {
	if size <= 0 || lineBytes <= 0 || assoc <= 0 {
		panic("mem: invalid cache geometry")
	}
	lines := size / lineBytes
	sets := lines / assoc
	if sets == 0 || sets&(sets-1) != 0 {
		panic("mem: cache set count must be a power of two")
	}
	n := sets * assoc
	return &cacheArray{
		sets:      sets,
		ways:      assoc,
		lineShift: log2(lineBytes),
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		dirty:     make([]bool, n),
		pref:      make([]bool, n),
		stamp:     make([]int64, n),
	}
}

// lineAddr returns the line-aligned address.
func (c *cacheArray) lineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}

func (c *cacheArray) set(addr uint64) int {
	return int((addr >> c.lineShift) & uint64(c.sets-1))
}

// way returns the slot of the way holding addr's line, or -1 when the
// line is not resident.
func (c *cacheArray) way(addr uint64) int {
	la := c.lineAddr(addr)
	base := c.set(addr) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tags[i] == la {
			return i
		}
	}
	return -1
}

// lookup probes the array. When touch is true a hit updates LRU state.
func (c *cacheArray) lookup(addr uint64, touch bool) bool {
	i := c.way(addr)
	if i >= 0 && touch {
		c.clock++
		c.stamp[i] = c.clock
	}
	return i >= 0
}

// markDirty sets the dirty bit of a resident line; it reports whether
// the line was present.
func (c *cacheArray) markDirty(addr uint64) bool {
	i := c.way(addr)
	if i < 0 {
		return false
	}
	c.dirty[i] = true
	c.clock++
	c.stamp[i] = c.clock
	return true
}

// fill installs a line, evicting the LRU way if needed. It returns the
// evicted line address and whether it was valid and dirty.
func (c *cacheArray) fill(addr uint64, dirty bool) (evicted uint64, wasValid, wasDirty bool) {
	victim := c.way(addr)
	if victim >= 0 {
		// Refills of a line already present just refresh it, keeping
		// its dirty state OR'd with the new fill.
		dirty = dirty || c.dirty[victim]
	} else {
		// Prefer an invalid way, otherwise evict the LRU way.
		base := c.set(addr) * c.ways
		victim = base
		for i := base; i < base+c.ways; i++ {
			if !c.valid[i] {
				victim = i
				break
			}
			if c.stamp[i] < c.stamp[victim] {
				victim = i
			}
		}
		if c.valid[victim] {
			evicted, wasValid, wasDirty = c.tags[victim], true, c.dirty[victim]
		}
	}
	c.tags[victim] = c.lineAddr(addr)
	c.valid[victim] = true
	c.dirty[victim] = dirty
	c.clock++
	c.stamp[victim] = c.clock
	return evicted, wasValid, wasDirty
}

// markPref flags a resident line as prefetcher-owned (tagged prefetch).
func (c *cacheArray) markPref(addr uint64) {
	if i := c.way(addr); i >= 0 {
		c.pref[i] = true
	}
}

// takePref consumes the prefetch tag of a resident line, reporting
// whether it was set (first demand hit on a prefetched line).
func (c *cacheArray) takePref(addr uint64) bool {
	i := c.way(addr)
	if i < 0 || !c.pref[i] {
		return false
	}
	c.pref[i] = false
	return true
}

// invalidate drops a line if present and reports whether it did.
func (c *cacheArray) invalidate(addr uint64) bool {
	i := c.way(addr)
	if i < 0 {
		return false
	}
	c.valid[i] = false
	c.dirty[i] = false
	return true
}
