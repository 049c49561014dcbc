package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
)

// class is one host-time bucket of the per-layer ledger.
type class int

const (
	classProvision  class = iota // RunWithCache entry → Setup, and between the drones of a fleet
	classWorldBuild              // the workload's World on a world-cache miss
	classSetup                   // the workload's Setup
	classFinish                  // last event → Collect return
	classDepth
	classPhysics
	classIMU
	classGPS
	classRGB
	classJobDone
	classMission
	classControl
	classOther
	numClasses
)

// classNames name each bucket after the module whose call or event it times.
var classNames = [numClasses]string{
	classProvision:  "core.provision",
	classWorldBuild: "env.world_build",
	classSetup:      "workloads.setup",
	classFinish:     "core.finish",
	classDepth:      "sim.depth",
	classPhysics:    "sim.physics",
	classIMU:        "sim.imu",
	classGPS:        "sim.gps",
	classRGB:        "sim.rgb",
	classJobDone:    "ros.job_done",
	classMission:    "workloads.mission",
	classControl:    "workloads.control",
	classOther:      "des.other",
}

// firstEventClass and lastEventClass bound the classes that are DES events.
const (
	firstEventClass = classDepth
	lastEventClass  = classOther
)

// jobDonePrefix starts the name of every executor completion event; the
// node name follows it.
const jobDonePrefix = "ros/job-done:"

// eventClasses is the fixed map from DES event names to classes. Names it
// does not hold go to des.other, which bench.attributed_frac exposes.
// Trajectory validation (planning/collision_check) joins the mission events:
// sweep has none, and a per-layer time must never read a constant zero.
var eventClasses = map[string]class{
	"sim/depth":                classDepth,
	"sim/physics":              classPhysics,
	"sim/imu":                  classIMU,
	"sim/gps":                  classGPS,
	"sim/rgb":                  classRGB,
	"delivery/mission":         classMission,
	"mapping/mission":          classMission,
	"photography/mission":      classMission,
	"mission/wait_takeoff":     classMission,
	"mission/wait_landing":     classMission,
	"planning/collision_check": classMission,
	"control/tick":             classControl,
	"scanning/control":         classControl,
}

func eventClass(name string) class {
	if c, ok := eventClasses[name]; ok {
		return c
	}
	if strings.HasPrefix(name, jobDonePrefix) {
		return classJobDone
	}
	return classOther
}

// ledger charges the host time of one mission to classes. Each boundary —
// an event starting, Setup or World entered or left — charges the time since
// the previous boundary to the class that was running. A mission runs on one
// goroutine, fleets included, so the ledger needs no lock.
type ledger struct {
	last   time.Time
	cur    class
	ns     [numClasses]time.Duration
	events [numClasses]int64
	sims   []*sim.Simulator
}

func newLedger() *ledger { return &ledger{last: time.Now(), cur: classProvision} }

func (l *ledger) enter(c class) {
	now := time.Now()
	l.ns[l.cur] += now.Sub(l.last)
	l.last, l.cur = now, c
}

func (l *ledger) event(ev des.Event) {
	c := eventClass(ev.Name)
	l.events[c]++
	l.enter(c)
}

// finish charges the time since the last event to core.finish.
func (l *ledger) finish() {
	now := time.Now()
	l.ns[classFinish] += now.Sub(l.last)
	l.last = now
}

// tracedSuffix names the wrapper registered for each real workload.
const tracedSuffix = "+traced"

// activeLedger is the ledger of the traced mission in flight. Traced passes
// run one mission at a time, and only they run the traced workloads.
var activeLedger atomic.Pointer[ledger]

// tracedWorkload delegates to a real workload, timing World and Setup and
// installing the ledger's tracer on every simulator it sets up. Missions run
// through the real core.RunWithCache and sim.Fleet code, so the benchmark
// copies none of the assembly logic.
type tracedWorkload struct{ core.Workload }

func (w tracedWorkload) Name() string { return w.Workload.Name() + tracedSuffix }

func (w tracedWorkload) World(p core.Params) (*env.World, geom.Vec3, error) {
	l := activeLedger.Load()
	l.enter(classWorldBuild)
	defer l.enter(classProvision)
	return w.Workload.World(p)
}

func (w tracedWorkload) Setup(s *sim.Simulator, p core.Params) error {
	l := activeLedger.Load()
	l.enter(classSetup)
	defer l.enter(classProvision)
	l.sims = append(l.sims, s)
	s.Engine().SetTracer(l.event)
	return w.Workload.Setup(s, p)
}

var registerTraced sync.Once

// registerTracedWorkloads registers one wrapper per real workload, once per
// process, so repeated test runs in one binary never register twice.
func registerTracedWorkloads() {
	registerTraced.Do(func() {
		for _, name := range core.Workloads() {
			w, err := core.Lookup(name)
			if err != nil {
				panic(err) // the name came from the registry a line above
			}
			core.Register(tracedWorkload{w})
		}
	})
}
