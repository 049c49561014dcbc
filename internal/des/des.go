// Package des implements the discrete-event simulation engine that drives
// every MAVBench run.
//
// The original MAVBench (Boroujerdian et al., MICRO 2018, Section III)
// executes its benchmark applications in real time on a hardware-in-the-loop
// NVIDIA TX2 while AirSim/Unreal simulate the vehicle on a host PC
// (the paper's Figure 5 setup). This reproduction replaces wall-clock time
// with a deterministic
// virtual clock: everything that happens — physics integration steps, sensor
// publications, compute-kernel executions, actuation commands, battery
// updates — is an event on a single timeline. Compute cost is charged in
// virtual time on a core-limited executor (see package ros), so core-count
// and clock-frequency scaling studies are exact and runs are reproducible.
//
// Ordering contract: events fire in increasing (time, priority, scheduling
// order). One-shot events have priority 0; a ticker made by EveryPriority
// has its own. Every Schedule call and every ticker re-arm takes the next
// scheduling sequence number, so events at the same instant and priority
// fire in the order they were scheduled. A ticker is re-armed after its
// callback returns, so the events that callback schedules precede its next
// firing at equal time and priority.
//
// Ownership: each Ticker owns one Event, bound to its callback once and
// re-armed in place after every firing, so steady-state ticking allocates
// nothing. An Event returned by Schedule or ScheduleAt belongs to its caller,
// who may keep it and Cancel it at any time; the engine never reuses it.
package des

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Event is a scheduled callback. It runs at its scheduled virtual time,
// receiving the engine so it may schedule follow-up events: once for an event
// from Schedule, and once per period for a ticker's event.
type Event struct {
	At       time.Duration // virtual time at which the event fires
	Name     string        // label for tracing/debugging
	Callback func(*Engine)

	priority int // tie-break: lower fires first at equal time
	seq      uint64
	canceled bool
}

// Cancel marks the event so that it will be skipped when its time arrives.
// Canceling an already-fired event has no effect.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether the event was canceled before firing.
func (e *Event) Canceled() bool { return e.canceled }

// before reports whether e fires before o: earlier time, then lower
// priority, then earlier scheduling.
func (e *Event) before(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	if e.priority != o.priority {
		return e.priority < o.priority
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events under Event.before.
type eventQueue []*Event

func (q *eventQueue) push(ev *Event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes the first event, q[0].
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && h[r].before(h[child]) {
				child = r
			}
			if !h[child].before(last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	*q = h
}

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop before the horizon or event exhaustion was reached.
var ErrStopped = errors.New("des: simulation stopped")

// Engine is a single-threaded discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct engines with NewEngine.
type Engine struct {
	now     time.Duration
	queue   eventQueue
	seq     uint64
	stopped bool
	stopErr error

	// Horizon, when non-zero, bounds Run: the engine refuses to advance the
	// clock beyond it and Run returns once the next event would exceed it.
	Horizon time.Duration

	processed uint64
	tracer    func(Event)
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// NowSeconds returns the current virtual time in seconds.
func (e *Engine) NowSeconds() float64 { return e.now.Seconds() }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (including
// canceled events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// SetTracer installs a hook invoked for every event just before it runs.
// Passing nil removes the tracer.
func (e *Engine) SetTracer(fn func(Event)) { e.tracer = fn }

// Schedule registers callback to run after delay (relative to the current
// virtual time). Negative delays are treated as zero. It returns the event so
// callers may cancel it.
func (e *Engine) Schedule(delay time.Duration, name string, callback func(*Engine)) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, name, callback)
}

// ScheduleAt registers callback to run at absolute virtual time at. Times in
// the past are clamped to the present.
func (e *Engine) ScheduleAt(at time.Duration, name string, callback func(*Engine)) *Event {
	if callback == nil {
		panic("des: Schedule with nil callback")
	}
	ev := &Event{Name: name, Callback: callback}
	e.arm(ev, at)
	return ev
}

// arm queues ev at time at (clamped to the present) with the next scheduling
// sequence number.
func (e *Engine) arm(ev *Event, at time.Duration) {
	if at < e.now {
		at = e.now
	}
	ev.At = at
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
}

// Every schedules callback to run periodically with the given period,
// starting one period from now, until the returned ticker is stopped or the
// engine stops. A period <= 0 panics.
func (e *Engine) Every(period time.Duration, name string, callback func(*Engine)) *Ticker {
	return e.EveryPriority(period, 0, name, callback)
}

// EveryPriority is Every with an explicit tie-break priority: among events
// with identical timestamps, lower priorities fire first. The physics stepper
// ticks at a negative priority so that the world state is always updated
// before same-instant sensor or compute events observe it.
func (e *Engine) EveryPriority(period time.Duration, priority int, name string, callback func(*Engine)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("des: Every with non-positive period %v", period))
	}
	t := &Ticker{period: period, callback: callback}
	t.ev = &Event{Name: name, Callback: t.fire, priority: priority}
	e.arm(t.ev, e.now+period)
	return t
}

// Ticker repeatedly fires a callback at a fixed period. It owns one event,
// which it re-arms in place after each firing.
type Ticker struct {
	period   time.Duration
	callback func(*Engine)
	ev       *Event
	stopped  bool
}

// Stop prevents any further firings of the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// Period returns the ticker's period.
func (t *Ticker) Period() time.Duration { return t.period }

func (t *Ticker) fire(e *Engine) {
	t.callback(e)
	if !t.stopped {
		e.arm(t.ev, e.now+t.period)
	}
}

// Stop halts the run loop after the current event completes. The given error
// (which may be nil) is recorded and surfaced by Run as its return value; a
// nil error is reported as ErrStopped.
func (e *Engine) Stop(err error) {
	e.stopped = true
	e.stopErr = err
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Step executes the single next pending event, advancing the clock to its
// timestamp. It returns false when no runnable event remains or the engine
// has been stopped.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		if e.stopped {
			return false
		}
		ev := e.queue[0]
		if ev.canceled {
			e.queue.pop()
			continue
		}
		if e.Horizon > 0 && ev.At > e.Horizon {
			// Leave it queued so state remains inspectable, and refuse to run.
			return false
		}
		e.queue.pop()
		e.now = ev.At
		if e.tracer != nil {
			e.tracer(*ev)
		}
		e.processed++
		ev.Callback(e)
		return true
	}
	return false
}

// Run executes events until the queue is exhausted, the horizon is exceeded,
// the event budget maxEvents (0 = unlimited) is spent, or Stop is called.
// It returns nil on normal completion, ErrStopped (or the error passed to
// Stop) when stopped, and an error when the event budget is exhausted.
func (e *Engine) Run(maxEvents uint64) error {
	var n uint64
	for {
		if e.stopped {
			if e.stopErr != nil {
				return e.stopErr
			}
			return ErrStopped
		}
		if maxEvents > 0 && n >= maxEvents {
			return fmt.Errorf("des: event budget of %d exhausted at t=%v", maxEvents, e.now)
		}
		if !e.Step() {
			if e.stopped {
				if e.stopErr != nil {
					return e.stopErr
				}
				return ErrStopped
			}
			return nil
		}
		n++
	}
}

// RunUntil runs the engine until the virtual clock reaches at least t, the
// queue empties, or the engine stops. The horizon, if set, still applies.
func (e *Engine) RunUntil(t time.Duration) error {
	for e.now < t {
		if e.stopped {
			if e.stopErr != nil {
				return e.stopErr
			}
			return ErrStopped
		}
		if len(e.queue) == 0 {
			return nil
		}
		// Peek: if the next event is beyond t, we're done.
		next := e.queue[0]
		if next.At > t {
			e.now = t
			return nil
		}
		if !e.Step() {
			return nil
		}
	}
	return nil
}

// Seconds converts a floating-point number of seconds into a time.Duration,
// saturating instead of overflowing for absurdly large values.
func Seconds(s float64) time.Duration {
	if math.IsInf(s, 1) || s > math.MaxInt64/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	if s < 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}
