package core

import (
	"context"
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

func registerTemp(t *testing.T, w Workload) {
	t.Helper()
	Register(w)
	t.Cleanup(func() {
		registryMu.Lock()
		delete(registry, w.Name())
		registryMu.Unlock()
	})
}

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

func TestSweepParamsDerivesSeeds(t *testing.T) {
	base := Params{Workload: "w", Seed: 9}
	points := []compute.OperatingPoint{{Cores: 2, FreqGHz: 0.8}, {Cores: 4, FreqGHz: 2.2}}
	runs := SweepParams(base, points)
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	for i, r := range runs {
		if r.Cores != points[i].Cores || r.FreqGHz != points[i].FreqGHz {
			t.Errorf("run %d operating point = %d/%v", i, r.Cores, r.FreqGHz)
		}
		if want := DeriveSeed(9, "w", points[i].Cores, points[i].FreqGHz, 0); r.Seed != want {
			t.Errorf("run %d seed = %d, want %d", i, r.Seed, want)
		}
	}
	if runs[0].Seed == runs[1].Seed {
		t.Error("distinct operating points must get distinct seeds")
	}
}

func TestRepeatParamsDerivesSeeds(t *testing.T) {
	runs := RepeatParams(Params{Workload: "w", Seed: 5}, 3)
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	seen := map[int64]bool{}
	for _, r := range runs {
		if seen[r.Seed] {
			t.Errorf("duplicate repeat seed %d", r.Seed)
		}
		seen[r.Seed] = true
	}
}

// TestRunnerDeterminism is the regression guard for the engine's core
// contract: the same sweep must produce identical Result slices at any
// worker count, because seeds derive from run identity rather than from
// scheduling.
func TestRunnerDeterminism(t *testing.T) {
	registerTemp(t, &fakeWorkload{name: "det_workload"})
	runs := SweepParams(Params{Workload: "det_workload", Seed: 42, MaxMissionTimeS: 30},
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
	// Byte-level fingerprint (fmt prints maps in sorted key order).
	if fmt.Sprintf("%+v", seq) != fmt.Sprintf("%+v", par) {
		t.Fatal("formatted results differ between worker counts")
	}
	// And a re-run at the same worker count must be bit-identical too.
	if !reflect.DeepEqual(par, sweep(8)) {
		t.Fatal("same sweep is not reproducible at workers=8")
	}
}

func TestRunnerOrderingMatchesInput(t *testing.T) {
	registerTemp(t, &fakeWorkload{name: "order_workload"})
	points := compute.PaperOperatingPoints()
	res, errs := runPool(4, SweepParams(Params{Workload: "order_workload", Seed: 7, MaxMissionTimeS: 30}, points))
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
	registerTemp(t, &panickyWorkload{name: "panic_workload"})
	registerTemp(t, &fakeWorkload{name: "healthy_workload"})
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
	registerTemp(t, &fakeWorkload{name: "err_workload"})
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
