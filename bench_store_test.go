// Storage subsystem benchmarks: world provisioning with and without the
// world cache, and the segment result store's put, get and indexed query.
//
// The world-provisioning pair measures exactly the stage the cache
// accelerates — building a workload's world versus cloning a cached one —
// not end-to-end runs (the simulation itself dominates those and is
// unchanged). The warm entry's speedup_vs_legacy_x is warm-vs-cold within
// the same run, so the CI gate holds across differing runner hardware.
//
// TestEmitStoreBenchJSON (gated by MAVBENCH_BENCH_JSON=1, like
// TestEmitBenchJSON) writes BENCH_store.json for the CI regression gate:
//
//	MAVBENCH_BENCH_JSON=1 go test -run TestEmitStoreBenchJSON -v .
package mavbench_test

import (
	"fmt"
	"os"
	"testing"

	"mavbench/internal/core"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/resultdb"
)

// storeBenchParams is the world the provisioning pair builds: the scanning
// workload at the scale the world-cache correctness tests pin.
func storeBenchParams(tb testing.TB) (core.Params, core.Workload) {
	tb.Helper()
	wl, err := core.Lookup("scanning")
	if err != nil {
		tb.Fatal(err)
	}
	p := core.Params{Workload: "scanning", Seed: 42, WorldScale: 0.3}.Normalize()
	return p, wl
}

// storeBenchResult fabricates the i-th stored result, hash included.
func storeBenchResult(i int) (string, mavbench.Result) {
	hash := fmt.Sprintf("%064x", i+1)
	return hash, mavbench.Result{
		SpecHash: hash,
		Spec: mavbench.Spec{
			Workload: []string{"scanning", "package_delivery", "mapping_3d"}[i%3],
			Scenario: "farm-default", Difficulty: 0.5,
			// Cores and freq vary on a different period than workload so
			// every (workload, cores) combination exists and range filters
			// always have matches.
			Cores: 2 + (i/3)%3, FreqGHz: 0.8 + 0.7*float64((i/9)%3),
			Seed: int64(i),
		},
		Platform: "TX2",
		Report:   mavbench.Report{Success: i%7 != 0, MissionTimeS: float64(i), TotalEnergyKJ: float64(i) / 10},
	}
}

// benchSegmentPrefill opens a segment store holding n records.
func benchSegmentPrefill(b *testing.B, n int) *resultdb.Store {
	b.Helper()
	s, err := resultdb.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		hash, res := storeBenchResult(i)
		s.Put(hash, res)
	}
	return s
}

func TestEmitStoreBenchJSON(t *testing.T) {
	if os.Getenv("MAVBENCH_BENCH_JSON") == "" {
		t.Skip("set MAVBENCH_BENCH_JSON=1 to regenerate BENCH_*.json")
	}
	p, wl := storeBenchParams(t)

	cold := runBench("store/world_provision/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := wl.World(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := runBench("store/world_provision/warm", func(b *testing.B) {
		wc := env.NewWorldCache()
		key := p.WorldHash()
		build := func() (*env.World, geom.Vec3, error) { return wl.World(p) }
		if _, _, err := wc.GetOrBuild(key, build); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := wc.GetOrBuild(key, build); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm.SpeedupX = cold.NsPerOp / warm.NsPerOp
	if warm.SpeedupX < 2 {
		t.Errorf("warm world provisioning is only %.2fx cold, the cache must be >= 2x", warm.SpeedupX)
	}
	entries := []benchEntry{cold, warm}

	const prefill = 2048
	entries = append(entries,
		runBench("store/segment/put", func(b *testing.B) {
			s := benchSegmentPrefill(b, 0)
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hash, res := storeBenchResult(i)
				s.Put(hash, res)
			}
		}),
		runBench("store/segment/get", func(b *testing.B) {
			s := benchSegmentPrefill(b, prefill)
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hash, _ := storeBenchResult(i % prefill)
				if _, ok := s.Get(hash); !ok {
					b.Fatalf("miss on %s", hash)
				}
			}
		}),
		runBench("store/segment/query", func(b *testing.B) {
			s := benchSegmentPrefill(b, prefill)
			defer s.Close()
			q := resultdb.Query{Workload: "scanning", Cores: resultdb.AtLeast(3), OnlyOK: true, Limit: 100}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(s.Query(q)) == 0 {
					b.Fatal("query returned nothing")
				}
			}
		}),
	)

	writeBenchFile(t, "BENCH_store.json", "store",
		"Storage subsystem: world provisioning cold (build) vs warm (cached clone) for the scanning workload at scale 0.3, and segment-store put, get and indexed query over 2048 records. The warm entry's speedup factor is measured against cold within the same run.",
		entries)
}
