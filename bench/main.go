// Command bench is the repository benchmark: it flies four closed-loop
// mission workloads through the public mavbench API, reports end-to-end host
// metrics from timed passes and per-layer host time from a traced pass, and
// checks that every pass produces the same mission outcomes.
//
// Run it from the repository root with bash bench/run.sh, which builds it
// from source; see bench/README.md for the workloads, metrics and the A/B
// protocol.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const defaultSeed = 1234

// e2eChildren is how many child processes share a run's measuring time.
// Each sets the workload up once and flies one peak-memory pass, so setup_s
// is the median of e2eChildren set-ups and peak_rss_mb the smallest of
// e2eChildren peaks.
const e2eChildren = 3

// childSlack bounds how long a child may run beyond its measuring time.
const childSlack = 2 * time.Minute

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: delivery, explore, sweep or swarm (empty runs all four)")
	seed := fs.Int64("seed", defaultSeed, "benchmark seed; every mission seed derives from it")
	seconds := fs.Float64("seconds", 12, "measuring time of the timed passes, per workload")
	trace := fs.Int("trace", -1, "0 reports the end-to-end metrics, 1 the per-layer metrics, -1 both")
	jsonOut := fs.String("json", "", "also write every metric with its quartiles to this file")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare base.json head.json")
	child := fs.String("child", "", "run one measuring phase in this process (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files: base.json head.json")
			return 2
		}
		err = compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
	case *child != "":
		var w workload
		if w, err = lookupWorkload(*name); err == nil {
			err = runChild(ctx, w, *seed, *seconds, *child, stdout)
		}
	default:
		var ok bool
		ok, err = runParent(ctx, *name, *seed, *seconds, *trace, *jsonOut, stdout)
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// workloadResult is one workload's outcome in a run.
type workloadResult struct {
	Correct    bool            `json:"correct"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Digest     string          `json:"digest"`
	Metrics    map[string]stat `json:"metrics"`
	Info       []string        `json:"info"`
	Mismatches []string        `json:"mismatches,omitempty"`
}

// runFile is the -json output.
type runFile struct {
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Machine   machine                   `json:"machine"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

// runParent measures the named workload (or all four) in child processes,
// prints every metric, and ends with the one-line JSON result. It reports
// false when a correctness check failed.
func runParent(ctx context.Context, name string, seed int64, seconds float64, trace int, jsonOut string, out io.Writer) (bool, error) {
	if trace < -1 || trace > 1 {
		return false, fmt.Errorf("-trace must be 0, 1 or -1, not %d", trace)
	}
	selected := workloads
	if name != "" {
		w, err := lookupWorkload(name)
		if err != nil {
			return false, err
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := runFile{Seed: seed, Seconds: seconds, Machine: describeMachine(), Workloads: map[string]workloadResult{}}
	final := workloadResult{Correct: true, Metrics: map[string]stat{}}
	for _, w := range selected {
		r, err := measureWorkload(ctx, exe, w, seed, seconds, trace)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		printWorkload(out, w, r)
		file.Workloads[w.name] = r
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for k, v := range final.Metrics {
		metrics[k] = value{v.Value, v.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{final.Correct, final.Attempted, final.Failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", b)
	return final.Correct, nil
}

// measureWorkload runs the workload's child processes: e2eChildren that
// share the measuring time of the end-to-end metrics, and one traced child
// for the per-layer metrics.
func measureWorkload(ctx context.Context, exe string, w workload, seed int64, seconds float64, trace int) (workloadResult, error) {
	r := workloadResult{Metrics: map[string]stat{}}
	var phases []string
	if trace != 1 {
		for i := 0; i < e2eChildren; i++ {
			phases = append(phases, phaseE2E)
		}
	}
	if trace != 0 {
		phases = append(phases, phaseTrace)
	}
	var e2e []childRun
	for _, phase := range phases {
		c, err := spawn(ctx, exe, w.name, seed, seconds/e2eChildren, phase)
		if err != nil {
			return r, err
		}
		r.Attempted += c.report.Attempted
		r.Failed += c.report.Failed
		if r.Digest != "" && r.Digest != c.report.Digest {
			r.Mismatches = append(r.Mismatches, fmt.Sprintf("%s phase outcome digest %s differs from %s", phase, c.report.Digest, r.Digest))
		}
		r.Digest = c.report.Digest
		r.Mismatches = append(r.Mismatches, c.report.Mismatches...)
		if phase == phaseE2E {
			e2e = append(e2e, c)
			if len(e2e) > 1 {
				continue // its info lines repeat the first child's
			}
		}
		for _, line := range c.report.Info {
			r.Info = append(r.Info, phase+": "+line)
		}
		for k, v := range c.report.Metrics {
			r.Metrics[k] = v
		}
	}
	if len(e2e) > 0 {
		for k, v := range endToEndMetrics(e2e, true) {
			r.Metrics[k] = v
		}
		raw := endToEndMetrics(e2e, false)
		var inits, warmups, setups, peaks, scales []float64
		for _, c := range e2e {
			inits = append(inits, c.setupS-c.warmupS)
			warmups = append(warmups, c.warmupS)
			setups = append(setups, c.setupS)
			peaks = append(peaks, c.report.Samples.PeakRSSMB)
			scales = append(scales, c.report.Samples.Scales...)
		}
		sc := summarize(scales, "")
		r.Info = append(r.Info,
			fmt.Sprintf("setup_s = init_s %.4f (process start to specs built) + warmup_s %.4f (unscaled medians of %d)",
				quantile(inits, 0.5), quantile(warmups, 0.5), len(e2e)),
			fmt.Sprintf("per child, unscaled: setup_s %.4f peak_rss_mb %.2f", setups, peaks),
			fmt.Sprintf("reference speed scale %.4f [%.4f, %.4f]; unscaled drone_s_per_s %.5g mission_p50_ms %.5g mission_p90_ms %.5g setup_s %.5g",
				sc.Value, sc.Q1, sc.Q3, raw["drone_s_per_s"].Value, raw["mission_p50_ms"].Value, raw["mission_p90_ms"].Value, raw["setup_s"].Value))
	}
	pin, err := pinned(w.name, seed)
	if err != nil {
		return r, err
	}
	if pin != "" && pin != r.Digest {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf("outcome digest %s differs from the digest pinned for seed %d, %s", r.Digest, seed, pin))
	}
	r.Correct = len(r.Mismatches) == 0
	return r, nil
}

//go:embed pins.json
var pinsJSON []byte

// pinned returns the outcome digest pinned for the workload at seed, if any.
func pinned(name string, seed int64) (string, error) {
	var pins struct {
		Seed    int64             `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return "", fmt.Errorf("reading pins.json: %w", err)
	}
	if seed != pins.Seed {
		return "", nil
	}
	return pins.Digests[name], nil
}

// endToEndMetrics pools the e2e children's samples: each metric is a median
// over passes or set-ups, with the quartiles of the same samples. Every pass
// flies the same missions, so the latency percentiles are taken within each
// pass and their median over passes is reported. With scaled set, host times
// are converted to the reference speed (see reference.go). peak_rss_mb is
// the smallest of the children's peaks: garbage-collector timing and the
// overlap of concurrent missions only ever add to a peak.
func endToEndMetrics(children []childRun, scaled bool) map[string]stat {
	var rates, allocs, p50s, p90s, setups []float64
	rss := math.Inf(1)
	for _, c := range children {
		s := c.report.Samples
		for i, lat := range s.Latencies {
			k := 1.0
			if scaled {
				k = s.Scales[i]
			}
			rates = append(rates, s.Rates[i]/k)
			p50s = append(p50s, k*quantile(lat, 0.5))
			p90s = append(p90s, k*quantile(lat, 0.9))
		}
		allocs = append(allocs, s.Allocs...)
		rss = math.Min(rss, s.PeakRSSMB)
		k := 1.0
		if scaled {
			k = s.WarmScale
		}
		setups = append(setups, k*(c.setupS-s.WarmKernelS))
	}
	return map[string]stat{
		"drone_s_per_s":        summarize(rates, "drone_s/s"),
		"mission_p50_ms":       summarize(p50s, "ms"),
		"mission_p90_ms":       summarize(p90s, "ms"),
		"alloc_kb_per_drone_s": summarize(allocs, "KB/drone_s"),
		"peak_rss_mb":          {Value: rss, Unit: "MB", Q1: rss, Q3: rss, N: len(children)},
		"setup_s":              summarize(setups, "s"),
	}
}

// childRun is what the parent observed of one child process.
type childRun struct {
	setupS  float64 // process start → "warm"
	warmupS float64 // "ready" → "warm"
	report  childReport
}

// spawn runs one child phase and waits for it to exit.
func spawn(ctx context.Context, exe, name string, seed int64, seconds float64, phase string) (childRun, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Duration(seconds*float64(time.Second))+childSlack)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", phase, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs()))
	cmd.Stderr = os.Stderr
	// A child never outlives the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var c childRun
	var ready time.Duration
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		switch line := sc.Text(); line {
		case "ready":
			ready = time.Since(start)
		case "warm":
			warm := time.Since(start)
			c.setupS, c.warmupS = warm.Seconds(), (warm - ready).Seconds()
		default:
			last = line
		}
	}
	// Drain whatever a failed scan left so the child can exit.
	_, _ = io.Copy(io.Discard, pipe)
	if err := cmd.Wait(); err != nil {
		return c, fmt.Errorf("%s phase: %w", phase, err)
	}
	if err := json.Unmarshal([]byte(last), &c.report); err != nil {
		return c, fmt.Errorf("%s phase: reading its report: %w", phase, err)
	}
	return c, nil
}

// childProcs is the GOMAXPROCS of every child: at most two, the reference
// machine's core count.
func childProcs() int { return min(2, runtime.NumCPU()) }

func describeMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: childProcs(), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func printWorkload(out io.Writer, w workload, r workloadResult) {
	fmt.Fprintf(out, "== %s (%d client(s)) correct=%t attempted=%d failed=%d digest=%s\n",
		w.name, w.clients, r.Correct, r.Attempted, r.Failed, r.Digest)
	for _, m := range r.Mismatches {
		fmt.Fprintf(out, "   MISMATCH %s\n", m)
	}
	for _, line := range r.Info {
		fmt.Fprintf(out, "   info %s\n", line)
	}
	for _, k := range sortedKeys(r.Metrics) {
		s := r.Metrics[k]
		fmt.Fprintf(out, "   %-34s %12.6g %-10s q1 %-12.6g q3 %-12.6g n %d\n", k, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
}
