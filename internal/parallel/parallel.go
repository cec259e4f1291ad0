// Package parallel models the paper's §7 argument about connecting
// networks to parallel processors: a parallel machine has no single hot
// spot that can run at the aggregate rate, so incoming data must be
// dispatched to the right part of the machine. "If the data is
// organized into ADUs, each ADU will contain enough information to
// control its own delivery"; a traditional byte-stream transport
// instead forces all data through one serializing reassembly point.
//
// Processing is modeled in virtual time: each stage is a server with a
// byte rate; an ADU occupies its worker for size/rate. The ALF path
// dispatches each ADU straight to a worker chosen from the ADU's own
// naming information; the serial path pushes every byte through a
// front-end stage first.
package parallel

import (
	alf "repro/internal/core"
	"repro/internal/sim"
)

// Stage is one service center (a processor node) in virtual time.
type Stage struct {
	// RateBps is the stage's processing rate in bytes per second.
	RateBps float64

	busyUntil sim.Time
	// BusyTime accumulates the stage's total service time.
	BusyTime sim.Duration
	// Jobs counts work items processed.
	Jobs int64
	// Bytes counts payload processed.
	Bytes int64
}

// Process enqueues a job arriving at time at and returns its finish
// time.
func (st *Stage) Process(at sim.Time, bytes int) sim.Time {
	start := st.busyUntil
	if at > start {
		start = at
	}
	service := sim.Duration(float64(bytes) / st.RateBps * 1e9)
	st.busyUntil = start.Add(service)
	st.BusyTime += service
	st.Jobs++
	st.Bytes += int64(bytes)
	return st.busyUntil
}

// Pool is a bank of worker stages fed ADUs directly (the ALF receiver)
// or through a serializing front end (the traditional receiver).
type Pool struct {
	sched *sim.Scheduler
	// Serial, when non-nil, is the front-end hot spot every byte must
	// traverse before reaching a worker.
	Serial *Stage
	// Workers are the parallel processing elements.
	Workers []*Stage
	// Assign maps an ADU to a worker index. The default uses the ADU's
	// application tag modulo the worker count — the ADU's own delivery
	// information. Only used by HandleADU.
	Assign func(adu alf.ADU) int

	// LastFinish is the completion time of the latest job (the
	// makespan once the workload is done).
	LastFinish sim.Time
	// Dispatched counts ADUs fed to workers.
	Dispatched int64
}

// NewPool creates a pool of n workers, each processing workerBps bytes
// per second. serialBps > 0 inserts a front-end stage at that rate
// (the serializing reassembly point); serialBps == 0 means direct
// dispatch.
func NewPool(sched *sim.Scheduler, n int, workerBps, serialBps float64) *Pool {
	p := &Pool{sched: sched}
	if serialBps > 0 {
		p.Serial = &Stage{RateBps: serialBps}
	}
	for i := 0; i < n; i++ {
		p.Workers = append(p.Workers, &Stage{RateBps: workerBps})
	}
	p.Assign = func(adu alf.ADU) int { return int(adu.Tag % uint64(len(p.Workers))) }
	return p
}

// HandleADU dispatches one ADU (wire to alf.Receiver.OnADU).
func (p *Pool) HandleADU(adu alf.ADU) {
	p.DispatchAt(p.sched.Now(), p.Assign(adu), len(adu.Data))
}

// DispatchAt routes bytes arriving at time at to worker w, via the
// serial front end when configured, and tracks the makespan.
func (p *Pool) DispatchAt(at sim.Time, w int, bytes int) sim.Time {
	if p.Serial != nil {
		at = p.Serial.Process(at, bytes)
	}
	finish := p.Workers[w].Process(at, bytes)
	if finish > p.LastFinish {
		p.LastFinish = finish
	}
	p.Dispatched++
	return finish
}
