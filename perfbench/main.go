// Command perfbench is the repository's benchmark. It runs one workload
// per invocation — suite-quasi, rpr-sharded or serve-mixed — from a
// seed, checks every output, and prints each metric by name and unit,
// then one JSON result line:
//
//	go run . --workload suite-quasi --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics untraced. With
// --trace 1 it makes the separate traced run that gives the per-layer
// breakdown and writes its spans to .bench_build/perfbench/. See
// README.md for the workloads, the metrics and which layer should move
// which metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aibench"
	"aibench/internal/dist"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// maxMeasure caps how far a run extends past --seconds to collect
	// the samples its reported percentiles need.
	maxMeasure = 120 * time.Second
	// runDeadline bounds a whole invocation, set-up and a stuck call's
	// grace included.
	runDeadline = 170 * time.Second
)

var workloads = []string{"suite-quasi", "rpr-sharded", "serve-mixed"}

// metricDef is one reported metric; the lists below match
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// corrupt flips one loss bit (training) or one hit-body byte
	// (serving) before the output check, to show the check can fail.
	corrupt bool
}

func (o options) runFor() time.Duration { return time.Duration(o.seconds) * time.Second }

// outcome is what a run measured and how its ops fared.
type outcome struct {
	tally   tally
	values  map[string]float64
	notes   map[string]string
	extras  []string
	samples map[string][]float64
}

// set records a metric that goes into the JSON result.
func (o *outcome) set(name string, v float64, note string) {
	if o.values == nil {
		o.values, o.notes = map[string]float64{}, map[string]string{}
	}
	o.values[name], o.notes[name] = v, note
}

// extra records a metric printed for people but kept out of the JSON.
func (o *outcome) extra(name string, v float64, unit, note string) {
	o.extras = append(o.extras, fmt.Sprintf("%-34s %14.6g %-9s %s", name, v, unit, note))
}

// tail records a percentile of latency samples as an extra, or says
// why it is not given.
func (o *outcome) tail(name string, xs []float64, q float64) {
	v, err := percentile(xs, q)
	if err != nil {
		o.extras = append(o.extras, fmt.Sprintf("%-34s %14s %-9s %v", name, "n/a", "ms", err))
		return
	}
	o.extra(name, v, "ms", fmt.Sprintf("%d samples", len(xs)))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rssWindows samples the process's resident set size every 5 ms while
// the timed phase runs and keeps the peak of each one-second window.
// Their median is steadier than the run's high-water mark, which grows
// with run length and catches one-off spikes.
type rssWindows struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func watchRSS() *rssWindows {
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		peak, start := 0.0, time.Now()
		for {
			select {
			case <-w.stop:
				if peak > 0 {
					w.peaks = append(w.peaks, peak)
				}
				return
			case <-tick.C:
			}
			mb, err := residentMB()
			if err != nil {
				w.err = err
				return
			}
			peak = math.Max(peak, mb)
			if time.Since(start) >= time.Second {
				w.peaks = append(w.peaks, peak)
				peak, start = 0, time.Now()
			}
		}
	}()
	return w
}

// finish stops sampling and returns the median window peak in MB.
func (w *rssWindows) finish() (float64, error) {
	close(w.stop)
	<-w.done
	if w.err != nil {
		return 0, fmt.Errorf("reading resident set size: %w", w.err)
	}
	return median(w.peaks), nil
}

// cpuTime is the CPU time used by this process and by its children
// that have been waited for: the process backend's replicas, once their
// session closed.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	// Getrusage fails only for an invalid who or pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return time.Duration(self.Utime.Nano() + self.Stime.Nano() + kids.Utime.Nano() + kids.Stime.Nano())
}

// residentMB reads the process's current resident set size.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, nil
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 25, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 makes the traced per-layer run")
	fs.BoolVar(&o.corrupt, "corrupt", false, "inject one corrupted output before the check")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds %d < 1", o.seconds)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace %d is not 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	// The process dist backend re-execs this binary as its replica
	// workers; they must serve the frame protocol before any flag
	// parsing sees their arguments.
	if os.Getenv(dist.WorkerEnv) != "" {
		if err := aibench.RunDistWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	// A call that ignores its deadline cannot be reclaimed; past
	// runDeadline the process exits rather than hang.
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: hang: the run exceeded %v\n", runDeadline)
		os.Exit(1)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code: 0
// when every op passed its check, 1 when any failed or the run could
// not measure, 2 for a usage or environment error.
func run(args []string, stdout, stderr io.Writer) int {
	if err := checkPinnedEnv(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	tag := newMachineTag(aibench.NewSuite())
	ctx := context.Background()
	defs := endToEnd
	var out *outcome
	if o.trace {
		defs = perLayerDefs()
		rec := newRecorder()
		out, err = runTraced(ctx, o, tag.Kernel, rec)
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if werr := rec.write(path, tag); werr != nil {
			err = errors.Join(err, fmt.Errorf("writing trace: %w", werr))
		} else {
			fmt.Fprintln(stdout, "trace written to", path)
		}
	} else {
		switch o.workload {
		case "suite-quasi":
			out, err = runTraining(ctx, o, suitePlan(o.seed, tag.Kernel), 0)
		case "rpr-sharded":
			out, err = runTraining(ctx, o, rprPlan(o.seed, tag.Kernel), rprShards)
		case "serve-mixed":
			out, err = runServe(ctx, o)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := report(stdout, o, tag, defs, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
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

// report prints every metric of defs, the extras and the machine tag,
// and builds the JSON result. A metric missing or not finite is an
// error: the result line is never printed without it.
func report(w io.Writer, o options, tag machineTag, defs []metricDef, out *outcome) (result, error) {
	res := result{
		Correct:   out.tally.failed == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted == 0 {
		return res, errors.New("no operation was attempted")
	}
	mode := "end-to-end, untraced"
	if o.trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s)\n", o.workload, o.seed, mode)
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured; failures: %s", d.name, strings.Join(out.tally.reasons, "; "))
		}
		fmt.Fprintf(w, "%-34s %14.6g %-9s %s\n", d.name, v, d.unit, out.notes[d.name])
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, e := range out.extras {
		fmt.Fprintln(w, e)
	}
	fmt.Fprintf(w, "%-34s %14.6g %-9s %d failed of %d attempted\n", "fail_ratio", out.tally.failRatio(), "ratio", res.Failed, res.Attempted)
	kinds := make([]string, 0, len(out.tally.kinds))
	for k, n := range out.tally.kinds {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(kinds)
	if len(kinds) > 0 {
		fmt.Fprintln(w, "failures:", strings.Join(kinds, " "))
		for _, r := range out.tally.reasons {
			fmt.Fprintln(w, "  ", r)
		}
	}
	tj, err := json.Marshal(tag)
	if err != nil {
		return res, err
	}
	fmt.Fprintln(w, "machine", string(tj))
	return res, nil
}
