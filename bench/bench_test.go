package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mavbench/internal/core"
	"mavbench/pkg/mavbench"
)

// smokeHorizonS keeps the smoke missions to a few milliseconds of host time.
const smokeHorizonS = 4

// TestEveryWorkloadEmitsBenchmarkMetrics runs every workload on two short
// missions through both measuring phases and checks that each metric
// BENCHMARK.json names is emitted with its unit, and nothing else is, that
// each end-to-end value lies within its own quartiles, and that the traced
// reports equal the untraced ones.
func TestEveryWorkloadEmitsBenchmarkMetrics(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			specs, err := w.specs(defaultSeed, smokeHorizonS)
			if err != nil {
				t.Fatal(err)
			}
			specs = specs[:2]
			e2e := measureSmoke(t, w.clients, specs, phaseE2E)
			e2eMetrics := endToEndMetrics([]childRun{{report: e2e}}, true)
			checkMetrics(t, "end_to_end", spec.EndToEnd, e2eMetrics)
			for name, s := range e2eMetrics {
				if s.Value < s.Q1 || s.Value > s.Q3 {
					t.Errorf("%s = %g lies outside its quartiles [%g, %g]", name, s.Value, s.Q1, s.Q3)
				}
			}
			layers := measureSmoke(t, w.clients, specs, phaseTrace)
			checkMetrics(t, "per_layer", spec.PerLayer, layers.Metrics)
			if layers.Metrics["des.events"].Value == 0 {
				t.Error("the traced pass saw no DES events")
			}
			if e2e.Digest != layers.Digest {
				t.Errorf("e2e digest %s, trace digest %s", e2e.Digest, layers.Digest)
			}
		})
	}
}

func measureSmoke(t *testing.T, clients int, specs []mavbench.Spec, phase string) childReport {
	t.Helper()
	warmed := false
	rep, err := measurePhase(context.Background(), clients, specs, 0, phase, func() { warmed = true })
	if err != nil {
		t.Fatalf("%s phase: %v", phase, err)
	}
	if !warmed {
		t.Errorf("%s phase never reported the end of its warm-up", phase)
	}
	if len(rep.Mismatches) > 0 {
		t.Errorf("%s phase: %v", phase, rep.Mismatches)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%s phase: %d of %d missions failed", phase, rep.Failed, rep.Attempted)
	}
	return rep
}

func checkMetrics(t *testing.T, list string, want []metricSpec, got map[string]stat) {
	t.Helper()
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		s, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is not emitted", list, m.Name)
		case s.Unit != m.Unit:
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", list, m.Name, s.Unit, m.Unit)
		}
	}
	for name := range got {
		if !named[name] {
			t.Errorf("metric %s is emitted but not named in BENCHMARK.json %s", name, list)
		}
	}
}

// TestTracedRegistrationIsIdempotent holds under go test -count=2: the
// wrappers are registered once per process however often they are asked for.
func TestTracedRegistrationIsIdempotent(t *testing.T) {
	registerTracedWorkloads()
	registerTracedWorkloads()
	for _, name := range []string{"scanning", "package_delivery", "mapping_3d", "search_and_rescue", "aerial_photography"} {
		if _, err := core.Lookup(name + tracedSuffix); err != nil {
			t.Error(err)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := metricSpec{Name: "drone_s_per_s", Better: "higher", Bound: 0.1}
	latency := metricSpec{Name: "mission_p50_ms", Better: "lower", Bound: 0.1}
	steady := func(v float64) stat { return stat{Value: v, Q1: v * 0.98, Q3: v * 1.02} }
	for _, tc := range []struct {
		m          metricSpec
		base, head stat
		want       string
	}{
		{rate, steady(10), steady(10.5), "ok"},
		{rate, steady(10), steady(8.5), "worse"},
		{rate, steady(10), steady(11.5), "better"},
		{latency, steady(100), steady(115), "worse"},
		{latency, steady(100), steady(85), "better"},
		{latency, steady(100), steady(95), "ok"},
		{latency, stat{Value: 100, Q1: 90, Q3: 112}, steady(150), "unresolved"},
	} {
		if got := verdict(tc.base, tc.head, tc.m); got != tc.want {
			t.Errorf("%s %v → %v: verdict %s, want %s", tc.m.Name, tc.base.Value, tc.head.Value, got, tc.want)
		}
	}
}

func TestCompareFilesShowsEachWorkloadInItsOwnRow(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("BENCHMARK.json", `{"end_to_end": [{"name": "drone_s_per_s", "unit": "drone_s/s", "better": "higher", "bound": 0.1}]}`)
	run := func(delivery, sweep float64) string {
		m := func(v float64) string {
			return fmt.Sprintf(`{"metrics": {"drone_s_per_s": {"value": %g, "q1": %g, "q3": %g}}}`, v, v*0.99, v*1.01)
		}
		return fmt.Sprintf(`{"workloads": {"delivery": %s, "sweep": %s}}`, m(delivery), m(sweep))
	}
	base := write("base.json", run(10, 20))
	head := write("head.json", run(10.2, 15))
	var out bytes.Buffer
	if err := compareFiles(base, head, spec, &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f[len(f)-1]
		}
	}
	if rows["delivery"] != "ok" || rows["sweep"] != "worse" {
		t.Errorf("verdicts delivery=%q sweep=%q, want ok and worse; output:\n%s", rows["delivery"], rows["sweep"], out.String())
	}
}
