package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// verdict compares one end-to-end metric of two runs against its bound:
// unresolved when the base's own quartile spread exceeds the bound, worse or
// better when the medians differ by more than the bound, ok otherwise.
func verdict(base, head stat, m metricSpec) string {
	if base.spread() > m.Bound {
		return "unresolved"
	}
	worse := (head.Value - base.Value) / base.Value
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case -worse > m.Bound:
		return "better"
	}
	return "ok"
}

// compareFiles prints, for each workload and end-to-end metric, both runs'
// medians with their quartiles and the verdict.
func compareFiles(basePath, headPath, specPath string, out io.Writer) error {
	var spec benchSpec
	var base, head runFile
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {basePath, &base}, {headPath, &head}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "%-9s %-22s %-32s %-32s %8s %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
	for _, w := range workloads {
		b, okB := base.Workloads[w.name]
		h, okH := head.Workloads[w.name]
		if !okB || !okH {
			continue
		}
		for _, m := range spec.EndToEnd {
			bs, okB := b.Metrics[m.Name]
			hs, okH := h.Metrics[m.Name]
			if !okB || !okH {
				fmt.Fprintf(out, "%-9s %-22s missing from a run\n", w.name, m.Name)
				continue
			}
			fmt.Fprintf(out, "%-9s %-22s %-32s %-32s %+7.1f%% %s\n", w.name, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", bs.Value, bs.Q1, bs.Q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", hs.Value, hs.Q1, hs.Q3),
				100*(hs.Value-bs.Value)/bs.Value, verdict(bs, hs, m))
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
