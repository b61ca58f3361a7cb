package core

import "mediasmt/internal/isa"

// physFile is one shared physical register pool: a free list, a ready
// scoreboard, and per-register waiter lists (the queue entries whose
// sources are outstanding, woken when the producer completes). All
// threads allocate from the same pool (the paper's shared common free
// register pool), which is what lets a single thread use the whole
// machine when running alone.
type physFile struct {
	free    []int32
	ready   []bool
	waiters [][]*uop
}

func newPhysFile(n int) physFile {
	f := physFile{
		free:    make([]int32, 0, n),
		ready:   make([]bool, n),
		waiters: make([][]*uop, n),
	}
	// Hand registers out in ascending order.
	for i := n - 1; i >= 0; i-- {
		f.free = append(f.free, int32(i))
	}
	return f
}

// alloc pops a free physical register; ok is false when the pool is
// exhausted (a rename stall).
func (f *physFile) alloc() (r int32, ok bool) {
	n := len(f.free)
	if n == 0 {
		return -1, false
	}
	r = f.free[n-1]
	f.free = f.free[:n-1]
	f.ready[r] = false
	return r, true
}

// release returns a register to the pool.
func (f *physFile) release(r int32) {
	f.ready[r] = false
	f.free = append(f.free, r)
}

// regFiles groups the pools by architectural namespace. The processor
// holds it by value, so a free-list length is a load from the
// processor itself.
type regFiles struct {
	byFile [6]physFile // indexed by isa.RegFile (RFInt..RFAcc)
}

func newRegFiles(cfg *Config) regFiles {
	var rf regFiles
	rf.byFile[isa.RFInt] = newPhysFile(cfg.PhysInt)
	rf.byFile[isa.RFFP] = newPhysFile(cfg.PhysFP)
	rf.byFile[isa.RFMMX] = newPhysFile(cfg.PhysMMX)
	rf.byFile[isa.RFMOM] = newPhysFile(cfg.PhysMOM)
	rf.byFile[isa.RFAcc] = newPhysFile(cfg.PhysAcc)
	return rf
}

func (rf *regFiles) file(f isa.RegFile) *physFile { return &rf.byFile[f] }
