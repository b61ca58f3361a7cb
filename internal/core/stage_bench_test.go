package core

import (
	"fmt"
	"testing"

	"mediasmt/internal/mem"
)

// Per-stage microbenchmarks. BenchmarkSimulatorThroughput (repo root)
// measures the whole executed-cycle path; these isolate one pipeline
// stage each so a profile-guided change to, say, issue shows up in its
// own number instead of being averaged into everything else. Each
// iteration times exactly one stage call against a window prepared by
// the real surrounding stages (untimed), so the measured work is the
// stage's steady-state behaviour, not a synthetic state no simulation
// reaches.

func benchCPU(b *testing.B, threads int) *Processor {
	b.Helper()
	msys := mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal))
	p, err := New(ConfigForThreads(ISAMMX, threads), msys)
	if err != nil {
		b.Fatal(err)
	}
	// Rounds far beyond any b.N: the program must never run dry.
	for t := 0; t < threads; t++ {
		p.SetProgram(t, aluProgram(1<<40), 1)
	}
	return p
}

// fillFetchQueues runs the fetch stage until every context's fetch
// queue is full or its fetch is blocked on an unresolved mispredict
// (resolved by the next drainWindow). A cycle with no fetch progress
// advances time past redirect stalls.
func fillFetchQueues(p *Processor) {
	for {
		satisfied := true
		for i := range p.threads {
			if th := &p.threads[i]; th.fqCount < p.cfg.FetchQCap && !th.fetchBlocked {
				satisfied = false
				break
			}
		}
		if satisfied {
			return
		}
		before := p.st.Fetched
		p.fetch(p.now)
		if p.st.Fetched == before {
			p.now++
		}
	}
}

// windowOcc is the number of uops in the issue queues and the
// graduation windows.
func windowOcc(p *Processor) int {
	n := 0
	for _, q := range p.q {
		n += len(q)
	}
	for i := range p.threads {
		n += p.threads[i].robCount
	}
	return n
}

// fillIssueQueues dispatches from full fetch queues until dispatch
// makes no more progress (window or queue structural stall), leaving
// the issue queues populated with renamed, mostly-ready uops.
func fillIssueQueues(p *Processor) {
	for {
		before := windowOcc(p)
		fillFetchQueues(p)
		p.dispatch()
		if windowOcc(p) == before {
			return
		}
	}
}

// drainWindow retires everything in flight using only the back-end
// stages, leaving fetch queues untouched and the window empty.
func drainWindow(p *Processor) {
	for {
		busy := false
		for i := range p.threads {
			busy = busy || p.threads[i].robCount > 0
		}
		if !busy {
			return
		}
		now := p.now
		p.drainNow = now
		p.memsys.Drain(now, p.drainFn)
		p.writeback(now)
		p.commit(now)
		p.sendLoadElements(now)
		p.issue(now)
		p.memsys.Tick(now)
		p.now++
	}
}

// completeWindow executes everything in the window (issue + writeback
// cycles) without retiring it, so every ROB head is commit-ready.
func completeWindow(p *Processor) {
	for {
		allDone := true
		for i := range p.threads {
			th := &p.threads[i]
			for j := 0; j < th.robCount; j++ {
				if !th.rob[(th.robHead+j)%len(th.rob)].completed {
					allDone = false
					break
				}
			}
			if !allDone {
				break
			}
		}
		if allDone {
			return
		}
		now := p.now
		p.writeback(now)
		p.issue(now)
		p.now++
	}
}

// perThreadCount runs a stage benchmark at four and at eight
// contexts: the per-thread loops only show at eight.
func perThreadCount(b *testing.B, bench func(b *testing.B, threads int)) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("%dT", n), func(b *testing.B) { bench(b, n) })
	}
}

func BenchmarkStageFetch(b *testing.B) {
	perThreadCount(b, func(b *testing.B, threads int) {
		p := benchCPU(b, threads)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.fetch(p.now)
			// Reset the fetch queues in place so the next iteration
			// fetches full groups again; leaving the reset timed keeps
			// the loop free of timer toggles. Every context is then
			// fetchable: its program never ends.
			for t := range p.threads {
				th := &p.threads[t]
				th.fqHead, th.fqCount = 0, 0
				th.frontCount, th.opCount = 0, 0
				th.fetchBlocked = false
			}
			p.fetchable = 1<<threads - 1
		}
	})
}

func BenchmarkStageDispatchRename(b *testing.B) {
	perThreadCount(b, func(b *testing.B, threads int) {
		p := benchCPU(b, threads)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			drainWindow(p)
			fillFetchQueues(p)
			b.StartTimer()
			p.dispatch()
		}
	})
}

func BenchmarkStageIssue(b *testing.B) {
	p := benchCPU(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		drainWindow(p)
		fillIssueQueues(p)
		b.StartTimer()
		p.issue(p.now)
	}
}

func BenchmarkStageWriteback(b *testing.B) {
	p := benchCPU(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		drainWindow(p)
		fillIssueQueues(p)
		p.issue(p.now)
		p.now += 64 // every issued op's latency elapses
		b.StartTimer()
		p.writeback(p.now)
	}
}

func BenchmarkStageCommit(b *testing.B) {
	perThreadCount(b, func(b *testing.B, threads int) {
		p := benchCPU(b, threads)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			drainWindow(p)
			fillIssueQueues(p)
			completeWindow(p)
			b.StartTimer()
			p.commit(p.now)
		}
	})
}

// BenchmarkStageCycle is the whole-pipeline reference point: one
// executed cycle of a busy core, the unit the per-stage numbers above
// decompose.
func BenchmarkStageCycle(b *testing.B) {
	perThreadCount(b, func(b *testing.B, threads int) {
		p := benchCPU(b, threads)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Cycle()
		}
	})
}
