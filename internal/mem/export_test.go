package mem

import "fmt"

// CheckHorizons recomputes a system's maintained horizons from the
// queues underneath and reports a disagreement: the completion horizon
// of Real and Ideal, and Real's L2-queue horizon.
func CheckHorizons(s System) error {
	var q *doneQueue
	l2q, l2qNext := NoEvent, NoEvent
	switch m := s.(type) {
	case *Real:
		q, l2qNext = &m.doneQueue, m.l2qNext
		for _, rq := range m.l2q {
			at := rq.readyAt
			if !rq.started {
				at = m.l2Bank[(rq.addr>>m.l2.lineShift)&uint64(m.cfg.L2Banks-1)]
			}
			l2q = min(l2q, at)
		}
	case *Ideal:
		q = &m.doneQueue
	default:
		return fmt.Errorf("no horizons known for %T", s)
	}
	done := NoEvent
	for _, d := range q.done {
		done = min(done, d.readyAt)
	}
	if l2q != l2qNext || done != q.doneNext {
		return fmt.Errorf("L2-queue horizon %d and completion horizon %d, queues say %d and %d",
			l2qNext, q.doneNext, l2q, done)
	}
	return nil
}
