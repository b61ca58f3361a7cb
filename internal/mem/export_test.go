package mem

import "fmt"

// CheckHorizons recomputes Real's L2-queue and completion horizons from
// the queues underneath and reports a disagreement; other Systems keep
// none.
func CheckHorizons(s System) error {
	m, ok := s.(*Real)
	if !ok {
		return nil
	}
	l2q, done := NoEvent, NoEvent
	for _, rq := range m.l2q {
		at := rq.readyAt
		if !rq.started {
			at = m.l2Bank[(rq.addr>>m.l2LineShift)&uint64(m.cfg.L2Banks-1)]
		}
		l2q = min(l2q, at)
	}
	for _, d := range m.done {
		done = min(done, d.readyAt)
	}
	if l2q != m.l2qNext || done != m.doneNext {
		return fmt.Errorf("L2-queue horizon %d and completion horizon %d, queues say %d and %d",
			m.l2qNext, m.doneNext, l2q, done)
	}
	return nil
}
