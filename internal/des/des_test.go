package des

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(3*time.Second, "c", func(*Engine) { order = append(order, "c") })
	e.Schedule(1*time.Second, "a", func(*Engine) { order = append(order, "a") })
	e.Schedule(2*time.Second, "b", func(*Engine) { order = append(order, "b") })

	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed())
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, "ev", func(*Engine) { order = append(order, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("events at equal time not FIFO: %v", order)
	}
}

func TestPriorityTieBreak(t *testing.T) {
	e := NewEngine()
	e.Horizon = time.Second
	var order []string
	e.EveryPriority(time.Second, 5, "late", func(*Engine) { order = append(order, "late") })
	e.Schedule(time.Second, "plain", func(*Engine) { order = append(order, "plain") })
	e.EveryPriority(time.Second, -5, "early", func(*Engine) { order = append(order, "early") })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "early" || order[1] != "plain" || order[2] != "late" {
		t.Errorf("priority order = %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Schedule(time.Second, "outer", func(eng *Engine) {
		times = append(times, eng.Now())
		eng.Schedule(500*time.Millisecond, "inner", func(eng *Engine) {
			times = append(times, eng.Now())
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != time.Second || times[1] != 1500*time.Millisecond {
		t.Errorf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, "x", func(*Engine) { fired = true })
	ev.Cancel()
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(2*time.Second, "advance", func(eng *Engine) {
		eng.Schedule(-5*time.Second, "past", func(eng *Engine) {
			if eng.Now() != 2*time.Second {
				t.Errorf("past event ran at %v, want clock unchanged at 2s", eng.Now())
			}
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		e.Schedule(time.Duration(i)*time.Second, "tick", func(eng *Engine) {
			count++
			if i == 3 {
				eng.Stop(nil)
			}
		})
	}
	err := e.Run(0)
	if !errors.Is(err, ErrStopped) {
		t.Errorf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false")
	}
}

func TestStopWithError(t *testing.T) {
	e := NewEngine()
	sentinel := errors.New("mission failed")
	e.Schedule(time.Second, "fail", func(eng *Engine) { eng.Stop(sentinel) })
	if err := e.Run(0); !errors.Is(err, sentinel) {
		t.Errorf("Run = %v, want %v", err, sentinel)
	}
}

func TestHorizon(t *testing.T) {
	e := NewEngine()
	e.Horizon = 5 * time.Second
	var fired []time.Duration
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Second
		e.Schedule(d, "tick", func(eng *Engine) { fired = append(fired, eng.Now()) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Errorf("fired %d events, want 5 (horizon)", len(fired))
	}
	if e.Now() > 5*time.Second {
		t.Errorf("clock %v exceeded horizon", e.Now())
	}
}

func TestEventBudget(t *testing.T) {
	e := NewEngine()
	// A self-perpetuating event chain.
	var tick func(*Engine)
	tick = func(eng *Engine) { eng.Schedule(time.Millisecond, "tick", tick) }
	e.Schedule(time.Millisecond, "tick", tick)
	if err := e.Run(100); err == nil {
		t.Error("expected budget-exhausted error")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(time.Second, "tick", func(*Engine) { count++ })
	if err := e.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
	// RunUntil with an empty-but-for-ticker queue continues correctly.
	if err := e.RunUntil(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Errorf("count after second RunUntil = %d, want 12", count)
	}
}

func TestRunUntilAdvancesClockWithNoEventsBeforeTarget(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Hour, "far", func(*Engine) {})
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if e.Now() != time.Minute {
		t.Errorf("Now = %v, want 1m", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Second, "tick", func(*Engine) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if tk.Period() != time.Second {
		t.Errorf("Period = %v", tk.Period())
	}
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestEveryPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewEngine().Every(0, "bad", func(*Engine) {})
}

func TestScheduleNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewEngine().Schedule(time.Second, "bad", nil)
}

func TestTracer(t *testing.T) {
	e := NewEngine()
	var traced []string
	e.SetTracer(func(ev Event) { traced = append(traced, ev.Name) })
	e.Schedule(time.Second, "one", func(*Engine) {})
	e.Schedule(2*time.Second, "two", func(*Engine) {})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(traced) != 2 || traced[0] != "one" || traced[1] != "two" {
		t.Errorf("traced = %v", traced)
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(1.5) != 1500*time.Millisecond {
		t.Errorf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Seconds(-3) != 0 {
		t.Errorf("Seconds(-3) = %v", Seconds(-3))
	}
	if Seconds(math.Inf(1)) != time.Duration(math.MaxInt64) {
		t.Errorf("Seconds(inf) = %v", Seconds(math.Inf(1)))
	}
	if Seconds(1e300) != time.Duration(math.MaxInt64) {
		t.Errorf("Seconds(huge) should saturate")
	}
}

// Property: regardless of insertion order, events fire in (time, priority,
// scheduling order). One-shot events, some scheduling a follow-up from their
// callback, share instants with priority tickers, some of which schedule a
// one-shot at their own next firing time. The test counts scheduling acts
// itself — a ticker is re-armed right after its callback returns — and
// checks the full firing order against a sort of every event scheduled
// within the horizon. (That sort is the firing order because every callback
// schedules only events that sort after itself.)
func TestEventOrderProperty(t *testing.T) {
	type key struct {
		at    time.Duration
		prio  int
		order int
	}
	less := func(a, b key) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.order < b.order
	}
	const horizon = 64 * time.Millisecond
	f := func(delaysMs []uint16, tickers []uint16) bool {
		e := NewEngine()
		e.Horizon = horizon
		var scheduled, fired []key
		schedule := func(at time.Duration, prio int) key {
			k := key{at, prio, len(scheduled)}
			scheduled = append(scheduled, k)
			return k
		}
		oneShot := func(eng *Engine, delay time.Duration, follow uint16) {
			k := schedule(eng.Now()+delay, 0)
			eng.Schedule(delay, "ev", func(eng *Engine) {
				fired = append(fired, k)
				if follow > 0 {
					delay := time.Duration(follow-1) * time.Millisecond
					fk := schedule(eng.Now()+delay, 0)
					eng.Schedule(delay, "follow", func(*Engine) { fired = append(fired, fk) })
				}
			})
		}
		for _, d := range delaysMs {
			oneShot(e, time.Duration(d%64)*time.Millisecond, d/64%4)
		}
		if len(tickers) > 6 {
			tickers = tickers[:6]
		}
		for _, spec := range tickers {
			period := time.Duration(1+spec%7) * time.Millisecond
			prio := int(spec/7%21) - 10
			spawns := spec/147%2 == 1
			next := schedule(period, prio)
			e.EveryPriority(period, prio, "tick", func(eng *Engine) {
				fired = append(fired, next)
				if spawns {
					oneShot(eng, period, 0)
				}
				next = schedule(eng.Now()+period, prio)
			})
		}
		if err := e.Run(0); err != nil {
			return false
		}
		var want []key
		for _, k := range scheduled {
			if k.at <= horizon {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return len(fired) == 0 || e.Now() == fired[len(fired)-1].at
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Steady-state ticking allocates nothing: every ticker, the physics-style
// priority ticker included, re-arms its own event in place.
func TestTickerFiringAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fired := 0
	count := func(*Engine) { fired++ }
	e.EveryPriority(Seconds(0.02), -10, "sim/physics", count)
	for _, hz := range []float64{4, 4, 10, 50} {
		e.Every(Seconds(1/hz), "sim/sensor", count)
	}
	e.Every(Seconds(0.1), "control/tick", count)
	if err := e.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	before := fired
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Errorf("ticker firing allocates %v per event, want 0", allocs)
	}
	if fired == before {
		t.Error("no ticker fired")
	}
}

// BenchmarkEngineStep times one event of the simulator's event mix: physics
// at 50 Hz on a priority ticker, the depth, RGB, GPS and IMU sensor tickers,
// a 10 Hz control and a 1 Hz mission ticker, and a one-shot executor
// completion after each control tick. Tickers allocate nothing per firing;
// each one-shot allocates its event.
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	nop := func(*Engine) {}
	e.EveryPriority(Seconds(0.02), -10, "sim/physics", nop)
	e.Every(Seconds(0.25), "sim/depth", nop)
	e.Every(Seconds(0.25), "sim/rgb", nop)
	e.Every(Seconds(0.1), "sim/gps", nop)
	e.Every(Seconds(0.02), "sim/imu", nop)
	e.Every(Seconds(1), "mission", nop)
	e.Every(Seconds(0.1), "control/tick", func(eng *Engine) {
		eng.Schedule(7*time.Millisecond, "ros/job-done:control", nop)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("engine ran out of events")
		}
	}
}
