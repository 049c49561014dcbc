package ros

import (
	"time"

	"mavbench/internal/des"
)

// Executor runs submitted jobs on a fixed number of virtual cores. A job's
// work function executes immediately when a core is free (this is a
// functional simulation — the Go code runs instantly), but the virtual time
// it reports as its cost occupies that core until the cost has elapsed on the
// DES clock. Jobs submitted while all cores are busy wait in a FIFO queue,
// which is exactly how a saturated companion computer delays a MAVBench
// pipeline stage.
type Executor struct {
	engine *des.Engine
	cores  int

	busy  int
	queue []*job

	jobsRun   uint64
	waitTotal time.Duration

	// doneNames maps a node to its job-done event name, built once per node
	// rather than concatenated on every job.
	doneNames map[string]string

	// onKernel, when set, is invoked for every completed job with its kernel
	// attribution. The telemetry recorder, which keeps the per-kernel
	// ledger, hooks in here.
	onKernel func(kernel, node string, cost time.Duration, start, end time.Duration)
}

type job struct {
	node        string
	work        func(now time.Duration) CallbackResult
	onDone      func()
	submittedAt time.Duration
}

// NewExecutor builds an executor with the given core count scheduled on
// engine. Core counts below 1 are clamped to 1.
func NewExecutor(engine *des.Engine, cores int) *Executor {
	if cores < 1 {
		cores = 1
	}
	return &Executor{engine: engine, cores: cores, doneNames: map[string]string{}}
}

// Cores returns the number of virtual cores.
func (e *Executor) Cores() int { return e.cores }

// Busy returns the number of cores currently occupied.
func (e *Executor) Busy() int { return e.busy }

// JobsRun returns the number of jobs completed so far.
func (e *Executor) JobsRun() uint64 { return e.jobsRun }

// TotalQueueWait returns the cumulative time jobs spent waiting for a core.
func (e *Executor) TotalQueueWait() time.Duration { return e.waitTotal }

// SetKernelObserver installs a hook invoked once per completed job with the
// job's kernel attribution, node, cost and execution interval.
func (e *Executor) SetKernelObserver(fn func(kernel, node string, cost time.Duration, start, end time.Duration)) {
	e.onKernel = fn
}

// Submit schedules work on the executor. onDone, if non-nil, runs after the
// job's cost has elapsed (in virtual time). Work runs as soon as a core is
// free.
func (e *Executor) Submit(node string, work func(now time.Duration) CallbackResult, onDone func()) {
	if work == nil {
		panic("ros: Submit with nil work")
	}
	j := &job{node: node, work: work, onDone: onDone, submittedAt: e.engine.Now()}
	if e.busy >= e.cores {
		e.queue = append(e.queue, j)
		return
	}
	e.start(j)
}

func (e *Executor) start(j *job) {
	e.busy++
	now := e.engine.Now()
	e.waitTotal += now - j.submittedAt

	res := j.work(now)
	cost := res.Cost
	if cost < 0 {
		cost = 0
	}
	e.jobsRun++
	if e.onKernel != nil {
		e.onKernel(res.Kernel, j.node, cost, now, now+cost)
	}

	name, ok := e.doneNames[j.node]
	if !ok {
		name = "ros/job-done:" + j.node
		e.doneNames[j.node] = name
	}
	e.engine.Schedule(cost, name, func(*des.Engine) {
		e.busy--
		if j.onDone != nil {
			j.onDone()
		}
		e.drain()
	})
}

func (e *Executor) drain() {
	for e.busy < e.cores && len(e.queue) > 0 {
		next := e.queue[0]
		e.queue = e.queue[1:]
		e.start(next)
	}
}
