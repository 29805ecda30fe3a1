// Command perfbench is the end-to-end benchmark of the alerting service: it
// assembles a cluster on the memory transport from the repository's own
// packages, drives the real publish → match → admit → enqueue → flush →
// notify path with a seeded open-loop and closed-loop load, checks every
// notification against an independent oracle, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON line.
// See README.md beside this file.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	out      string
}

// setupRuns is the number of cluster assemblies of an untraced run;
// setup_s is their median. The traced run assembles once.
const setupRuns = 9

// deadline bounds a run: a fixed allowance for building the inputs and
// the clusters plus, per measurement (two when traced), three times the
// open loop's length, which covers the open-loop segments, their drains
// and the closed-loop batches that scale with the open loop.
func deadline(cfg config) time.Duration {
	passes := 1
	if cfg.trace {
		passes = 2
	}
	return 20*time.Second + time.Duration(3*cfg.seconds*passes)*time.Second
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units. The report
// prints all of them; the result line carries the gated ones, those whose
// run-to-run spread on a 2-vCPU VM stays within BENCHMARK.json's
// bounds (README.md, "Noise").
var endToEnd = []struct {
	name, unit string
	gated      bool
}{
	{"setup_s", "s", true},
	{"publish_p50_ms", "ms", false},
	{"publish_p95_ms", "ms", false},
	{"notify_p50_ms", "ms", true},
	{"notify_p95_ms", "ms", false},
	{"notify_p99_ms", "ms", false},
	{"notify_realtime_p99_ms", "ms", false},
	{"events_per_s", "1/s", true},
	{"subscribe_p50_ms", "ms", false},
	{"subscribe_p95_ms", "ms", false},
	{"subscribe_p99_ms", "ms", false},
	{"dissem_msgs_per_event", "count", true},
	{"wire_bytes_per_event", "B", true},
	{"allocs_per_event", "count", true},
	{"heap_mb", "MB", true},
}

// overheadOf lists the wall-clock end-to-end timings trace.overhead_pct
// compares between the traced and the untraced run.
var overheadOf = []string{
	"publish_p50_ms", "publish_p95_ms", "notify_p50_ms", "notify_p99_ms",
	"notify_realtime_p99_ms", "events_per_s", "subscribe_p50_ms", "subscribe_p99_ms",
}

// layerUnit gives the unit of a per-layer metric from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "trace.overhead_pct"):
		return "%"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "bytes_"):
		return "B"
	default:
		return "count"
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "open-loop phase length in seconds (the closed-loop batch scales with it)")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.Float64Var(&cfg.scale, "scale", 1, "shrinks population, rate and batch (smoke runs); 1 is the benchmark")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || cfg.scale <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q must be one of %s)\n", cfg.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	// A wedged run must still end, and end without a result line.
	limit := deadline(cfg)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := runBenchmark(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runBenchmark generates the inputs, runs the untraced measurement and,
// in traced mode, a second traced one, and prints a readable report
// before returning the result line.
func runBenchmark(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	w := workloads[cfg.workload].scaled(cfg.scale)
	in, err := generate(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	// Self-check: the inputs and the oracle are a function of the seed.
	again, err := generate(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	deterministic := again.fingerprint == in.fingerprint && again.expected == in.expected

	stamp := envStamp(cfg, w, in)
	stampLine, _ := json.Marshal(map[string]any{"env": stamp})
	fmt.Fprintln(stdout, string(stampLine))

	base, err := measure(ctx, in, setupRuns, nil)
	if err != nil {
		return nil, err
	}
	batches := slices.Clone(base.eventsPerS) // in run order; the median sorts
	e2e := endToEndValues(base)
	res := &result{Metrics: map[string]metric{}}
	runs := []*measurement{base}
	if cfg.trace {
		tr := newTracer()
		traced, err := measure(ctx, in, 1, tr)
		if err != nil {
			return nil, err
		}
		runs = append(runs, traced)
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", cfg.workload, cfg.seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
		layer := traced.layer
		te2e := endToEndValues(traced)
		var pcts []float64
		for _, name := range overheadOf {
			// A timing the workload does not take (subscribe_* without
			// churn) reads 0 in both runs and has no overhead.
			if e2e[name] == 0 || te2e[name] == 0 {
				layer["trace.overhead_pct."+name] = 0
				continue
			}
			// Higher events_per_s is better, so its overhead is the
			// inverse ratio.
			pct := (te2e[name]/e2e[name] - 1) * 100
			if name == "events_per_s" {
				pct = (e2e[name]/te2e[name] - 1) * 100
			}
			layer["trace.overhead_pct."+name] = pct
			pcts = append(pcts, pct)
		}
		layer["trace.overhead_pct"] = median(pcts)
		for name, v := range layer {
			res.Metrics[name] = metric{Value: v, Unit: layerUnit(name)}
		}
	} else {
		for _, d := range endToEnd {
			if !d.gated {
				continue
			}
			res.Metrics[d.name] = metric{Value: e2e[d.name], Unit: d.unit}
		}
	}

	var fails failures
	var problems []string
	if !deterministic {
		problems = append(problems, "inputs differ between two generations from one seed")
	}
	for _, m := range runs {
		res.Attempted += m.attempted
		fails.add(m.fails)
		if m.standbyErr != nil {
			problems = append(problems, m.standbyErr.Error())
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			problems = append(problems, "metric "+name+" is not a number")
		}
	}
	res.Failed = fails.total()
	res.Correct = res.Failed == 0 && len(problems) == 0

	report(stdout, e2e, batches, res, fails, problems, float64(res.Failed)/float64(max(1, res.Attempted)))
	return res, nil
}

// endToEndValues computes the end-to-end metrics of one measurement.
func endToEndValues(m *measurement) map[string]float64 {
	return map[string]float64{
		"setup_s":                median(m.setupS),
		"publish_p50_ms":         quantile(m.publishMS, 0.5),
		"publish_p95_ms":         quantile(m.publishMS, 0.95),
		"notify_p50_ms":          quantile(m.notifyMS, 0.5),
		"notify_p95_ms":          quantile(m.notifyMS, 0.95),
		"notify_p99_ms":          quantile(m.notifyMS, 0.99),
		"notify_realtime_p99_ms": quantile(m.notifyRTMS, 0.99),
		"events_per_s":           median(m.eventsPerS),
		"subscribe_p50_ms":       quantile(m.subscribeMS, 0.5),
		"subscribe_p95_ms":       quantile(m.subscribeMS, 0.95),
		"subscribe_p99_ms":       quantile(m.subscribeMS, 0.99),
		"dissem_msgs_per_event":  m.dissem,
		"wire_bytes_per_event":   m.wireBytes,
		"allocs_per_event":       m.allocs,
		"heap_mb":                m.heapMB,
	}
}

// report prints the readable summary: every end-to-end metric of the
// untraced run with its unit, the closed-loop batches events_per_s is the
// median of, the oracle's findings and, in traced mode, the per-layer
// metrics.
func report(w io.Writer, e2e map[string]float64, batches []float64, res *result, f failures, problems []string, failRatio float64) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, d := range endToEnd {
		fmt.Fprintf(bw, "%-28s %14.4f %s\n", d.name, e2e[d.name], d.unit)
	}
	fmt.Fprint(bw, "closed-loop batches (1/s):")
	for _, b := range batches {
		fmt.Fprintf(bw, " %.2f", b)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "%-28s %14.6f ratio\n", "fail_ratio", failRatio)
	if _, traced := res.Metrics["trace.overhead_pct"]; traced {
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(bw, "%-44s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
	fb, _ := json.Marshal(f)
	fmt.Fprintf(bw, "oracle: expected %d notifications, failures %s\n", res.Attempted, fb)
	for _, p := range problems {
		fmt.Fprintln(bw, "problem:", p)
	}
}

// envStamp records where and on what a result was measured.
func envStamp(cfg config, w workload, in *inputs) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"scale":      cfg.scale,
		"trace":      cfg.trace,
		"workload":   w,
		"steps":      len(in.steps),
		"expected":   in.expected[0] + in.expected[1],
	}
}

// cpuModel reads the CPU model name (Linux), or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
