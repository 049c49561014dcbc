// Command mavbench-store administers a result store offline: inspect it,
// query it the way GET /v1/results does, and force a compaction. Stop the
// mavbenchd that owns the directory first; a store directory is opened by
// one process at a time.
//
//	mavbench-store stats   -dir /var/lib/mavbench/segments
//	mavbench-store query   -dir /var/lib/mavbench/segments -workload scanning -cores-min 4 -metrics MissionTimeS,TotalEnergyKJ
//	mavbench-store compact -dir /var/lib/mavbench/segments
//
// All output is JSON (one document for stats/compact, NDJSON rows for
// query), so results pipe into jq. See docs/STORE.md for the layout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/resultdb"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = runStats(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "compact":
		err = runCompact(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "mavbench-store: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mavbench-store: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `mavbench-store administers a mavbench result store.

Subcommands:
  stats   -dir <segments>            store counters (segments, records, live/dead bytes, ...)
  query   -dir <segments> [filters]  filtered results as NDJSON (mirrors GET /v1/results)
  compact -dir <segments>            rewrite live records, reclaim dead bytes

Run "mavbench-store <subcommand> -h" for the subcommand's flags.
`)
}

// openStore opens the segment store named by -dir, refusing an empty flag.
func openStore(dir string) (*resultdb.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir is required")
	}
	return resultdb.Open(dir)
}

// emit writes one indented JSON document to stdout.
func emit(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("dir", "", "segment store directory")
	fs.Parse(args)
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer s.Close()
	return emit(s.Stats())
}

func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("dir", "", "segment store directory")
	fs.Parse(args)
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer s.Close()
	before := s.Stats()
	if err := s.Compact(); err != nil {
		return err
	}
	return emit(map[string]any{"before": before, "after": s.Stats()})
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("dir", "", "segment store directory")
	workload := fs.String("workload", "", "exact canonical workload name")
	scenario := fs.String("scenario", "", "exact scenario name")
	diffMin := fs.Float64("difficulty-min", -1, "minimum difficulty (negative = unbounded)")
	diffMax := fs.Float64("difficulty-max", -1, "maximum difficulty (negative = unbounded)")
	coresMin := fs.Int("cores-min", 0, "minimum cores (0 = unbounded)")
	coresMax := fs.Int("cores-max", 0, "maximum cores (0 = unbounded)")
	freqMin := fs.Float64("freq-min", 0, "minimum frequency in GHz (0 = unbounded)")
	freqMax := fs.Float64("freq-max", 0, "maximum frequency in GHz (0 = unbounded)")
	onlyOK := fs.Bool("ok", false, "drop failed runs")
	limit := fs.Int("limit", 0, "result cap (0 = unlimited)")
	metricsList := fs.String("metrics", "", "comma-separated Report fields to project into flat rows (e.g. MissionTimeS,TotalEnergyKJ)")
	fs.Parse(args)
	s, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer s.Close()

	q := resultdb.Query{Workload: *workload, Scenario: *scenario, OnlyOK: *onlyOK, Limit: *limit}
	if *diffMin >= 0 {
		q.Difficulty.Min, q.Difficulty.HasMin = *diffMin, true
	}
	if *diffMax >= 0 {
		q.Difficulty.Max, q.Difficulty.HasMax = *diffMax, true
	}
	if *coresMin > 0 {
		q.Cores.Min, q.Cores.HasMin = float64(*coresMin), true
	}
	if *coresMax > 0 {
		q.Cores.Max, q.Cores.HasMax = float64(*coresMax), true
	}
	if *freqMin > 0 {
		q.FreqGHz.Min, q.FreqGHz.HasMin = *freqMin, true
	}
	if *freqMax > 0 {
		q.FreqGHz.Max, q.FreqGHz.HasMax = *freqMax, true
	}

	var project []string
	for _, name := range strings.Split(*metricsList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			project = append(project, name)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	for _, res := range s.Query(q) {
		if len(project) == 0 {
			if err := enc.Encode(res); err != nil {
				return err
			}
			continue
		}
		row := map[string]any{
			"spec_hash":  res.SpecHash,
			"workload":   res.Spec.Workload,
			"scenario":   res.Spec.Scenario,
			"difficulty": res.Spec.Difficulty,
			"cores":      res.Spec.Cores,
			"freq_ghz":   res.Spec.FreqGHz,
			"ok":         res.OK(),
		}
		fields := reportFields(res.Report)
		for _, name := range project {
			if v, ok := fields[name]; ok {
				row[name] = v
			}
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// reportFields flattens a Report into its scalar fields by Go field name
// (Report has no JSON tags), the same projection GET /v1/results applies.
func reportFields(rep mavbench.Report) map[string]any {
	raw, err := json.Marshal(rep)
	if err != nil {
		return nil
	}
	var all map[string]any
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil
	}
	out := map[string]any{}
	for name, v := range all {
		switch v.(type) {
		case float64, bool:
			out[name] = v
		}
	}
	return out
}
