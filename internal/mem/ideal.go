package mem

// Ideal is the perfect memory system of the paper's §5.2: every access
// hits with the L1 hit latency and there are no bank conflicts. Port
// bandwidth is still finite (it belongs to the processor, not the
// memory), so vector streams drain at the port rate.
type Ideal struct {
	doneQueue
	cfg       Config
	st        Stats
	portsUsed int
	portCycle int64 // cycle portsUsed counts; stale counts reset lazily
}

// NewIdeal builds a perfect memory system.
func NewIdeal(cfg Config) *Ideal {
	return &Ideal{cfg: cfg, doneQueue: doneQueue{doneNext: NoEvent}}
}

// Access implements System. Loads complete after the L1 hit latency;
// stores are absorbed immediately.
func (m *Ideal) Access(now int64, r Request) bool {
	if now != m.portCycle {
		m.portCycle = now
		m.portsUsed = 0
	}
	if m.portsUsed >= m.cfg.GeneralPorts {
		m.st.PortRejects++
		return false
	}
	m.portsUsed++
	if r.Vector {
		m.st.VecAccesses++
	}
	if r.Store {
		m.st.StoreAccesses++
		return true
	}
	m.st.L1Accesses++
	m.st.L1Hits++
	lat := int32(m.cfg.L1HitLat)
	m.st.L1LoadLatSum += int64(lat)
	m.st.L1LoadCount++
	m.push(r.Tag, now, lat)
	return true
}

// FetchLine implements System: the instruction cache always hits.
func (m *Ideal) FetchLine(now int64, thread int, pc uint64) FetchResult {
	m.st.ICAccesses++
	m.st.ICHits++
	return FetchHit
}

// FetchReady implements System.
func (m *Ideal) FetchReady(thread int) bool { return true }

// Tick implements System. Port arbitration is keyed to the access
// cycle (see Access), so ticking has nothing left to reset and idle
// cycles may be skipped entirely.
func (m *Ideal) Tick(now int64) {}

// NextEvent implements System: the only future activity of a perfect
// memory is delivering its pending load completions.
func (m *Ideal) NextEvent(now int64) int64 { return max(now, m.doneNext) }

// Stats implements System.
func (m *Ideal) Stats() *Stats { return &m.st }
