package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner is the bounded worker pool behind every MAVBench batch: the public
// mavbench.Campaign and the experiments package fan independent runs out
// through Parallel while keeping the results bit-identical to a sequential
// execution:
//
//   - every run's seed is derived up front from the sweep's base seed and the
//     run's identity (workload, operating point, repeat index), never from
//     worker identity or completion order (see DeriveSeed);
//   - each task owns its index, so callers collect results into submission
//     slots regardless of which run finishes first;
//   - a panic inside one task is recovered and surfaced as that task's error
//     instead of tearing down the whole batch;
//   - an optional context cancels tasks that have not started yet.
//
// The zero value is ready to use and sizes the pool to runtime.GOMAXPROCS(0).
type Runner struct {
	// Workers bounds the number of concurrently executing runs.
	// Values <= 0 select runtime.GOMAXPROCS(0).
	Workers int
}

// workers resolves the configured pool size.
func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DeriveSeed deterministically derives a per-run seed from the sweep's base
// seed and the run's identity. Because the derived seed depends only on what
// the run *is* — not on which worker executes it or when — a sweep produces
// bit-identical results at any worker count, and inserting or removing
// operating points never perturbs the seeds of the others.
func DeriveSeed(baseSeed int64, workload string, cores int, freqGHz float64, repeat int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(baseSeed))
	h.Write(buf[:])
	h.Write([]byte(workload))
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(cores)))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(freqGHz))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(repeat)))
	h.Write(buf[:])
	seed := int64(h.Sum64() & math.MaxInt64)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// DeriveVehicleSeed derives drone vehicle's seed within a multi-vehicle run
// from the run's seed. Drone 0 keeps the run seed unchanged — so the lead
// drone of a fleet draws exactly the sensor-noise and planner streams of the
// equivalent single-vehicle run — and every other drone gets an independent
// stream mixed from its index alone, never from fleet size or scheduling.
func DeriveVehicleSeed(runSeed int64, vehicle int) int64 {
	if vehicle <= 0 {
		return runSeed
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(runSeed))
	h.Write(buf[:])
	h.Write([]byte("vehicle"))
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(vehicle)))
	h.Write(buf[:])
	seed := int64(h.Sum64() & math.MaxInt64)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Parallel executes task(0..n-1) on the runner's worker pool and blocks until
// every task has returned, been skipped by cancellation, or panicked. Task
// panics are recovered into errors. The returned error joins every per-task
// error in index order (nil when all tasks succeeded).
func (r Runner) Parallel(ctx context.Context, n int, task func(i int) error) error {
	return errors.Join(r.parallelErrs(ctx, n, task)...)
}

// parallelErrs is Parallel with per-index error attribution preserved.
func (r Runner) parallelErrs(ctx context.Context, n int, task func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.workers()
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					// Short-circuit: stamp this index, then claim every
					// index that no worker has started and stamp those in
					// one walk instead of one atomic claim per index. Swap
					// both reads the frontier and parks it at n, so other
					// workers stop claiming immediately; indices below the
					// frontier belong to workers already inside runTask and
					// keep their real results.
					errs[i] = fmt.Errorf("core: run %d canceled: %w", i, err)
					for j := int(next.Swap(int64(n))); j < n; j++ {
						errs[j] = fmt.Errorf("core: run %d canceled: %w", j, err)
					}
					return
				}
				errs[i] = runTask(task, i)
			}
		}()
	}
	wg.Wait()
	return errs
}

// runTask invokes one task with panic recovery.
func runTask(task func(int) error, i int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: run %d panicked: %v", i, rec)
		}
	}()
	return task(i)
}
