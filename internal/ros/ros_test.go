package ros

import (
	"slices"
	"testing"
	"time"

	"mavbench/internal/des"
)

func costOnly(d time.Duration, kernel string) Handler {
	return func(now time.Duration, msg Message) CallbackResult {
		return CallbackResult{Cost: d, Kernel: kernel}
	}
}

func TestPubSubDelivery(t *testing.T) {
	eng := des.NewEngine()
	g := NewGraph(eng, 4)

	var received []int
	sub := g.Node("subscriber")
	sub.Subscribe("numbers", 10, func(now time.Duration, msg Message) CallbackResult {
		received = append(received, msg.(int))
		return CallbackResult{Cost: time.Millisecond, Kernel: "k"}
	})

	numbers := g.Topic("numbers")
	eng.Schedule(0, "pub", func(*des.Engine) {
		for i := 0; i < 5; i++ {
			numbers.Publish(i)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(received) != 5 {
		t.Fatalf("received %d messages, want 5", len(received))
	}
	for i, v := range received {
		if v != i {
			t.Errorf("message %d = %d (out of order?)", i, v)
		}
	}
	if g.Topic("numbers").Published() != 5 {
		t.Errorf("Published = %d", g.Topic("numbers").Published())
	}
	if g.Topic("numbers").Subscribers() != 1 {
		t.Errorf("Subscribers = %d", g.Topic("numbers").Subscribers())
	}
}

func TestCoreLimitedExecution(t *testing.T) {
	// Two single-core graphs vs one dual-core graph: four 100 ms jobs take
	// 400 ms on one core and 200 ms on two.
	run := func(cores int) time.Duration {
		eng := des.NewEngine()
		g := NewGraph(eng, cores)
		n := g.Node("worker")
		n.Subscribe("work", 16, costOnly(100*time.Millisecond, "heavy"))
		work := g.Topic("work")
		eng.Schedule(0, "pub", func(*des.Engine) {
			for i := 0; i < 4; i++ {
				work.Publish(i)
			}
		})
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}

	oneCore := run(1)
	if oneCore != 400*time.Millisecond {
		t.Errorf("1 core: finished at %v, want 400ms", oneCore)
	}
	// A single subscription processes sequentially regardless of cores (it is
	// one callback chain), so use distinct subscribers for parallelism.
	eng := des.NewEngine()
	g := NewGraph(eng, 2)
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		g.Node("worker-"+name).Subscribe("work-"+name, 4, costOnly(100*time.Millisecond, "heavy"))
	}
	eng.Schedule(0, "pub", func(*des.Engine) {
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			g.Topic("work-" + name).Publish(i)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 200*time.Millisecond {
		t.Errorf("2 cores, 4 independent jobs: finished at %v, want 200ms", eng.Now())
	}
}

func TestSubscriptionIsSequentialPerSubscriber(t *testing.T) {
	// A single subscriber must process messages one at a time even on a
	// many-core executor (callbacks of one subscription don't run
	// concurrently in a single-threaded ROS spinner).
	eng := des.NewEngine()
	g := NewGraph(eng, 8)
	var done []time.Duration
	g.Node("n").Subscribe("t", 16, func(now time.Duration, msg Message) CallbackResult {
		return CallbackResult{Cost: 50 * time.Millisecond, Kernel: "k"}
	})
	// Track completion times through the executor's kernel observer.
	g.Executor().SetKernelObserver(func(kernel, node string, cost time.Duration, start, end time.Duration) {
		done = append(done, end)
	})
	eng.Schedule(0, "pub", func(*des.Engine) {
		for i := 0; i < 3; i++ {
			g.Topic("t").Publish(i)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 150*time.Millisecond {
		t.Errorf("3 sequential 50ms callbacks should end at 150ms, got %v", eng.Now())
	}
	if len(done) != 3 {
		t.Errorf("observer saw %d jobs, want 3", len(done))
	}
}

func TestQueueOverflowDropsOldest(t *testing.T) {
	eng := des.NewEngine()
	g := NewGraph(eng, 1)
	var got []int
	g.Node("slow").Subscribe("t", 2, func(now time.Duration, msg Message) CallbackResult {
		got = append(got, msg.(int))
		return CallbackResult{Cost: time.Second, Kernel: "slow"}
	})
	eng.Schedule(0, "pub", func(*des.Engine) {
		for i := 0; i < 6; i++ {
			g.Topic("t").Publish(i)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Queue depth 2 = 1 in flight + 1 backlog slot; later publishes overwrite
	// the backlog, keeping the newest.
	if len(got) != 2 {
		t.Fatalf("processed %d messages, want 2 (rest dropped), got %v", len(got), got)
	}
	if got[0] != 0 {
		t.Errorf("first processed = %d, want 0", got[0])
	}
	if got[1] != 5 {
		t.Errorf("second processed = %d, want newest (5)", got[1])
	}
	if g.Topic("t").Dropped() == 0 {
		t.Error("expected dropped messages to be counted")
	}
}

func TestNodeIntrospection(t *testing.T) {
	g := NewGraph(des.NewEngine(), 2)
	n := g.Node("camera")
	n.Subscribe("trigger", 1, costOnly(0, ""))

	if got := n.Name(); got != "camera" {
		t.Errorf("Name = %q", got)
	}
	// Node() returns the same instance for the same name, and Topic() the
	// same topic, so a second lookup sees the subscription.
	if g.Node("camera") != n {
		t.Error("Node should be idempotent")
	}
	if got := g.Topic("trigger"); got.Name() != "trigger" || got.Subscribers() != 1 {
		t.Errorf("Topic(trigger) = %q with %d subscribers, want one", got.Name(), got.Subscribers())
	}
	if g.Engine() == nil || g.Executor() == nil {
		t.Error("accessors returned nil")
	}
}

func TestExecutorAccounting(t *testing.T) {
	eng := des.NewEngine()
	ex := NewExecutor(eng, 2)
	if ex.Cores() != 2 {
		t.Errorf("Cores = %d", ex.Cores())
	}
	kernelTotals := map[string]time.Duration{}
	kernelCounts := map[string]int{}
	nodeTotals := map[string]time.Duration{}
	ex.SetKernelObserver(func(kernel, node string, cost time.Duration, start, end time.Duration) {
		kernelTotals[kernel] += cost
		kernelCounts[kernel]++
		nodeTotals[node] += cost
		if end-start != cost {
			t.Errorf("%s job interval [%v, %v] does not span its cost %v", kernel, start, end, cost)
		}
	})
	for i := 0; i < 3; i++ {
		ex.Submit("node-a", func(now time.Duration) CallbackResult {
			return CallbackResult{Cost: 100 * time.Millisecond, Kernel: "alpha"}
		}, nil)
	}
	ex.Submit("node-b", func(now time.Duration) CallbackResult {
		return CallbackResult{Cost: 50 * time.Millisecond, Kernel: "beta"}
	}, nil)

	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if ex.JobsRun() != 4 {
		t.Errorf("JobsRun = %d", ex.JobsRun())
	}
	if got := kernelTotals["alpha"]; got != 300*time.Millisecond {
		t.Errorf("alpha total = %v", got)
	}
	if got := kernelCounts["alpha"]; got != 3 {
		t.Errorf("alpha count = %d", got)
	}
	if got := nodeTotals["node-b"]; got != 50*time.Millisecond {
		t.Errorf("node-b total = %v", got)
	}
	if len(kernelCounts) != 2 {
		t.Errorf("observed kernels = %v, want alpha and beta", kernelCounts)
	}
	// 4 jobs on 2 cores: two of them wait for a core.
	if ex.TotalQueueWait() <= 0 {
		t.Error("TotalQueueWait should be positive when jobs queued")
	}
}

func TestExecutorZeroCostJob(t *testing.T) {
	eng := des.NewEngine()
	ex := NewExecutor(eng, 1)
	ran := false
	var observed []time.Duration
	ex.SetKernelObserver(func(kernel, node string, cost time.Duration, start, end time.Duration) {
		observed = append(observed, cost)
	})
	ex.Submit("n", func(now time.Duration) CallbackResult {
		ran = true
		return CallbackResult{Cost: -time.Second, Kernel: ""}
	}, nil)
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("job did not run")
	}
	if len(observed) != 1 || observed[0] != 0 {
		t.Errorf("negative cost should be clamped to zero, observed costs %v", observed)
	}
	if eng.Now() != 0 {
		t.Errorf("zero-cost job should not advance time, now=%v", eng.Now())
	}
}

// TestExecutorJobDoneEventNames: every job completes with an event named
// "ros/job-done:<node>", the prefix the benchmark's tracer classifies by,
// also when the name comes from the executor's per-node cache.
func TestExecutorJobDoneEventNames(t *testing.T) {
	eng := des.NewEngine()
	ex := NewExecutor(eng, 1)
	var names []string
	eng.SetTracer(func(ev des.Event) { names = append(names, ev.Name) })
	for _, node := range []string{"mapper", "mapper", "planner"} {
		ex.Submit(node, func(now time.Duration) CallbackResult {
			return CallbackResult{Cost: time.Millisecond}
		}, nil)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"ros/job-done:mapper", "ros/job-done:mapper", "ros/job-done:planner"}
	if !slices.Equal(names, want) {
		t.Errorf("events %q, want %q", names, want)
	}
}

func TestExecutorClampsCores(t *testing.T) {
	ex := NewExecutor(des.NewEngine(), 0)
	if ex.Cores() != 1 {
		t.Errorf("Cores = %d, want 1", ex.Cores())
	}
}

func TestSubmitNilWorkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewExecutor(des.NewEngine(), 1).Submit("n", nil, nil)
}

func TestSubscribeNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g := NewGraph(des.NewEngine(), 1)
	g.Node("n").Subscribe("t", 1, nil)
}

func TestPipelineLatencyAcrossStages(t *testing.T) {
	// perception -> planning -> control, each 100 ms on a single core.
	eng := des.NewEngine()
	g := NewGraph(eng, 1)

	var controlDone time.Duration
	g.Node("perception").Subscribe("sensor", 4, func(now time.Duration, msg Message) CallbackResult {
		g.Topic("percept").Publish(msg)
		return CallbackResult{Cost: 100 * time.Millisecond, Kernel: "perception"}
	})
	g.Node("planning").Subscribe("percept", 4, func(now time.Duration, msg Message) CallbackResult {
		g.Topic("plan").Publish(msg)
		return CallbackResult{Cost: 100 * time.Millisecond, Kernel: "planning"}
	})
	g.Node("control").Subscribe("plan", 4, func(now time.Duration, msg Message) CallbackResult {
		controlDone = eng.Now() + 100*time.Millisecond
		return CallbackResult{Cost: 100 * time.Millisecond, Kernel: "control"}
	})

	eng.Schedule(0, "sense", func(*des.Engine) { g.Topic("sensor").Publish("frame") })
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Note: a stage's downstream publish happens when its callback starts
	// (the work function runs immediately) but downstream processing still
	// has to wait for a free core, so total latency is still 3x100ms.
	if controlDone != 300*time.Millisecond {
		t.Errorf("end-to-end latency = %v, want 300ms", controlDone)
	}
}
