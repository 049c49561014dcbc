package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mavbench/internal/compute"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
)

// panickyWorkload panics during Setup to exercise the pool's recovery path.
type panickyWorkload struct{ name string }

func (p *panickyWorkload) Name() string        { return p.name }
func (p *panickyWorkload) Description() string { return "panics during setup" }
func (p *panickyWorkload) World(pr Params) (*env.World, geom.Vec3, error) {
	return env.BoundedEmptyWorld(40, 20, pr.Seed), geom.V3(0, 0, 0), nil
}
func (p *panickyWorkload) Setup(*sim.Simulator, Params) error { panic("wired backwards") }

// runPool runs every parameter set through Run on a pool of the given size,
// the way mavbench.Campaign drives the Runner, and returns the results and
// per-run errors in input order.
func runPool(workers int, runs []Params) ([]Result, []error) {
	results := make([]Result, len(runs))
	errs := Runner{Workers: workers}.parallelErrs(context.Background(), len(runs), func(i int) (err error) {
		results[i], err = Run(runs[i])
		return err
	})
	return results, errs
}

func TestDeriveSeed(t *testing.T) {
	s := DeriveSeed(1, "scanning", 4, 2.2, 0)
	if s <= 0 {
		t.Errorf("derived seed must be positive, got %d", s)
	}
	if s != DeriveSeed(1, "scanning", 4, 2.2, 0) {
		t.Error("DeriveSeed is not stable")
	}
	// Every identity component must perturb the seed.
	variants := []int64{
		DeriveSeed(2, "scanning", 4, 2.2, 0),
		DeriveSeed(1, "mapping_3d", 4, 2.2, 0),
		DeriveSeed(1, "scanning", 2, 2.2, 0),
		DeriveSeed(1, "scanning", 4, 0.8, 0),
		DeriveSeed(1, "scanning", 4, 2.2, 1),
	}
	for i, v := range variants {
		if v == s {
			t.Errorf("variant %d collides with the base seed", i)
		}
	}
}

// sweepParams expands base into one run per operating point, each seeded
// from the point's identity, the way mavbench.SweepSpecs does.
func sweepParams(base Params, points []compute.OperatingPoint) []Params {
	runs := make([]Params, len(points))
	for i, pt := range points {
		runs[i] = base
		runs[i].Cores, runs[i].FreqGHz = pt.Cores, pt.FreqGHz
		runs[i].Seed = DeriveSeed(base.Seed, base.Workload, pt.Cores, pt.FreqGHz, 0)
	}
	return runs
}

// TestRunnerDeterminism is the regression guard for the engine's core
// contract: the same sweep must produce identical Result slices at any
// worker count, because seeds derive from run identity rather than from
// scheduling.
func TestRunnerDeterminism(t *testing.T) {
	RegisterFor(t, &fakeWorkload{name: "det_workload"})
	runs := sweepParams(Params{Workload: "det_workload", Seed: 42, MaxMissionTimeS: 30},
		compute.PaperOperatingPoints())

	sweep := func(workers int) []Result {
		res, errs := runPool(workers, runs)
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	seq := sweep(1)
	par := sweep(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("workers=1 and workers=8 diverge:\n%+v\nvs\n%+v", seq, par)
	}
	// Byte-level fingerprint. JSON, not %+v: Params holds pointers, and fmt
	// would print their addresses.
	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("serialized results differ between worker counts")
	}
	// And a re-run at the same worker count must be bit-identical too.
	if !reflect.DeepEqual(par, sweep(8)) {
		t.Fatal("same sweep is not reproducible at workers=8")
	}
}

func TestRunnerOrderingMatchesInput(t *testing.T) {
	RegisterFor(t, &fakeWorkload{name: "order_workload"})
	points := compute.PaperOperatingPoints()
	res, errs := runPool(4, sweepParams(Params{Workload: "order_workload", Seed: 7, MaxMissionTimeS: 30}, points))
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Params.Cores != points[i].Cores || r.Params.FreqGHz != points[i].FreqGHz {
			t.Errorf("slot %d holds operating point %d/%v, want %v", i, r.Params.Cores, r.Params.FreqGHz, points[i])
		}
	}
}

func TestRunnerPanicRecovery(t *testing.T) {
	RegisterFor(t, &panickyWorkload{name: "panic_workload"}, &fakeWorkload{name: "healthy_workload"})
	runs := []Params{
		{Workload: "healthy_workload", Seed: 1, MaxMissionTimeS: 30},
		{Workload: "panic_workload", Seed: 1, MaxMissionTimeS: 30},
		{Workload: "healthy_workload", Seed: 2, MaxMissionTimeS: 30},
	}
	results, errs := runPool(2, runs)
	if err := errors.Join(errs...); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("joined error = %v, want panic surfaced", err)
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "panicked") {
		t.Errorf("panicking run's error = %v", errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil || !results[i].Report.Success {
			t.Errorf("healthy run %d should have completed: err=%v success=%v", i, errs[i], results[i].Report.Success)
		}
	}
}

func TestRunnerRunErrorsKeepOrderAndJoin(t *testing.T) {
	RegisterFor(t, &fakeWorkload{name: "err_workload"})
	runs := []Params{
		{Workload: "err_workload", Seed: 1, MaxMissionTimeS: 30},
		{Workload: "definitely_missing", Seed: 1},
	}
	_, errs := runPool(2, runs)
	if err := errors.Join(errs...); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v", err)
	}
	if errs[0] != nil || errs[1] == nil {
		t.Errorf("error attribution wrong: %v / %v", errs[0], errs[1])
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Runner{Workers: 4}.Parallel(ctx, 16, func(int) error {
		t.Error("task ran despite canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestParallelRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int32
	err := Runner{Workers: 7}.Parallel(context.Background(), n, func(i int) error {
		hits[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d executed %d times", i, got)
		}
	}
}

func TestParallelJoinsTaskErrors(t *testing.T) {
	err := Runner{Workers: 3}.Parallel(context.Background(), 5, func(i int) error {
		if i == 2 {
			return fmt.Errorf("task %d failed", i)
		}
		if i == 4 {
			panic("task 4 exploded")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected joined error")
	}
	for _, want := range []string{"task 2 failed", "panicked", "task 4 exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

func TestRunnerWorkerDefaults(t *testing.T) {
	if (Runner{}).workers() < 1 {
		t.Error("default pool must have at least one worker")
	}
	if got := (Runner{Workers: 3}).workers(); got != 3 {
		t.Errorf("workers() = %d, want 3", got)
	}
}

// TestParallelCancelShortCircuitsRemainingIndices pins the canceled-sweep
// contract: once the context is canceled mid-sweep, (1) tasks that already
// completed keep their real results, (2) every unexecuted index is stamped
// with a canceled error naming it, and (3) the walk over the remaining
// indices is a single claim, not one atomic round-trip per index — the
// frontier jumps straight to n, so no task runs after cancellation.
func TestParallelCancelShortCircuitsRemainingIndices(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int32
	errs := Runner{Workers: 2}.parallelErrs(ctx, n, func(i int) error {
		executed.Add(1)
		if i == 3 {
			cancel() // cancel mid-sweep, from inside a run
		}
		return nil
	})
	ran := int(executed.Load())
	if ran >= n {
		t.Fatalf("all %d tasks ran; cancellation never short-circuited", n)
	}
	var completed, canceled int
	for i, err := range errs {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, context.Canceled):
			canceled++
			if !strings.Contains(err.Error(), fmt.Sprintf("run %d", i)) {
				t.Fatalf("canceled error for index %d does not name it: %v", i, err)
			}
		default:
			t.Fatalf("index %d: unexpected error %v", i, err)
		}
	}
	if completed != ran {
		t.Errorf("%d tasks executed but %d slots kept nil errors", ran, completed)
	}
	if completed+canceled != n {
		t.Errorf("completed (%d) + canceled (%d) != n (%d)", completed, canceled, n)
	}
	if canceled == 0 {
		t.Error("no index was stamped canceled")
	}
}
