package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"aibench"
	"aibench/internal/results"
	"aibench/internal/tensor"
)

// The traced run: the per-layer breakdown. It is separate from the
// untraced run that gives the end-to-end metrics. The benchmark records
// its own spans around each call into a layer and reads the spans and
// counters the program already emits under Plan.Telemetry; it adds no
// tracing inside the program. Every part runs once, whatever the
// workload, so every per-layer metric is measured; the named workload's
// part then repeats until --seconds is spent, and each metric reports
// the median over its repeats.

// kernelOps are the tensor kernel ops a suite pass dispatches.
var kernelOps = []string{"matmul", "matmult", "tmatmul", "conv2d"}

// perLayerDefs lists the per-layer metrics; it matches BENCHMARK.json.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, id := range trainIDs() {
		defs = append(defs, metricDef{"models.epoch_ms." + id, "ms"}, metricDef{"models.epoch_alloc_mb." + id, "MB"})
	}
	defs = append(defs,
		metricDef{"tensor.matmul_gflops.sq512", "GFLOP/s"},
		metricDef{"tensor.matmul_gflops.skinny", "GFLOP/s"},
		metricDef{"tensor.matmul_gflops.fat", "GFLOP/s"},
		metricDef{"tensor.conv2d_gflops.resblock", "GFLOP/s"},
		metricDef{"tensor.matmul_alloc_kb.sq512", "kB"},
		metricDef{"tensor.conv2d_alloc_kb.resblock", "kB"},
	)
	for _, op := range kernelOps {
		defs = append(defs, metricDef{"tensor.calls." + op, "count"}, metricDef{"tensor.gflop." + op, "GFLOP"})
	}
	return append(defs,
		metricDef{"tensor.effective_gflops", "GFLOP/s"},
		metricDef{"parallel.pool_calls", "count"},
		metricDef{"parallel.busy_frac", "ratio"},
		metricDef{"gc.cycles_per_epoch", "count"},
		metricDef{"gc.pause_ms_per_epoch", "ms"},
		metricDef{"dist.compute_ms", "ms"},
		metricDef{"dist.allreduce_ms", "ms"},
		metricDef{"dist.bufsync_ms", "ms"},
		metricDef{"dist.apply_ms", "ms"},
		metricDef{"dist.open_close_ms", "ms"},
		metricDef{"dist.exposed_comm_frac", "ratio"},
		metricDef{"dist.grains", "count"},
		metricDef{"dist.reduce_rounds", "count"},
		metricDef{"dist.reduce_mfloats", "Mfloat"},
		metricDef{"server.ttfb_ms_p50.miss", "ms"},
		metricDef{"server.hit_ms_p50", "ms"},
		metricDef{"server.hit_ms_p99", "ms"},
		metricDef{"server.miss_ms_p50", "ms"},
		metricDef{"server.miss_ms_p90", "ms"},
		metricDef{"server.cache_hit_ratio", "ratio"},
		metricDef{"server.queue_depth_mean", "jobs"},
		metricDef{"server.workers_busy_frac", "ratio"},
		metricDef{"server.rejected", "count"},
		metricDef{"results.write_us_per_record", "us"},
		metricDef{"results.read_mb_per_s", "MB/s"},
		metricDef{"gpusim.characterize_all_ms", "ms"},
		metricDef{"core.newrunner_ms", "ms"},
		metricDef{"telemetry.overhead_frac", "ratio"},
	)
}

// sample adds one measurement of a per-layer metric; the reported
// value is the median of its samples.
func (o *outcome) sample(name string, v float64) {
	if o.samples == nil {
		o.samples = map[string][]float64{}
	}
	o.samples[name] = append(o.samples[name], v)
}

// tracer holds what every traced part shares.
type tracer struct {
	o       options
	kernel  string
	suite   *aibench.Suite
	rec     *recorder
	root    *span
	part    *span // the running part's span, parent of its calls
	out     *outcome
	ref     []aibench.SessionResult // suite-quasi reference pass
	rprRef  []aibench.SessionResult // rpr-sharded reference pass
	refMeta aibench.RunMeta
}

// runTraced makes the traced run.
func runTraced(ctx context.Context, o options, kernel string, rec *recorder) (*outcome, error) {
	t := &tracer{o: o, kernel: kernel, suite: aibench.NewSuite(), rec: rec, out: &outcome{}}
	t.root = rec.start(nil, "run", "perfbench "+o.workload)
	defer t.root.end()
	sp := t.root.child("setup")
	runner, ref, err := trainingSetup(ctx, suitePlan(o.seed, kernel), 0)
	if err != nil {
		return nil, fmt.Errorf("setup: suite-quasi %w", err)
	}
	t.ref, t.refMeta = ref, runner.Meta()
	if _, t.rprRef, err = trainingSetup(ctx, rprPlan(o.seed, kernel), rprShards); err != nil {
		return nil, fmt.Errorf("setup: rpr-sharded %w", err)
	}
	sp.end()

	parts := map[string]func(context.Context) error{
		"suite-quasi": t.models,
		"rpr-sharded": t.dist,
		"probes":      t.probes,
		"serve-mixed": t.serve,
	}
	runPart := func(name string) error {
		// Served jobs may leave another kernel active; every part
		// starts under the default one.
		if err := aibench.UseKernels(t.kernel); err != nil {
			return err
		}
		t.part = t.root.child(name)
		defer t.part.end()
		err := parts[name](ctx)
		if err != nil && !errors.Is(err, errHung) {
			t.out.tally.fail(name, err.Error())
			return nil
		}
		return err
	}
	// The named workload's part repeats for --seconds; then every other
	// part runs once, serving last because a stuck served job would keep
	// a CPU busy under whatever ran after it.
	for start := time.Now(); ; {
		if err := runPart(o.workload); err != nil {
			return nil, err
		}
		if time.Since(start) >= o.runFor() {
			break
		}
	}
	for _, name := range []string{"suite-quasi", "rpr-sharded", "probes", "serve-mixed"} {
		if name == o.workload {
			continue
		}
		if err := runPart(name); err != nil {
			return nil, err
		}
	}
	for name, xs := range t.out.samples {
		t.out.set(name, median(xs), fmt.Sprintf("median of %d", len(xs)))
	}
	return t.out, nil
}

// runTracedPlan runs one telemetry plan under the pass deadline inside
// a span of the benchmark's own trace.
func (t *tracer) runTracedPlan(ctx context.Context, plan aibench.Plan, traceID string) (*aibench.RunResult, uint64, error) {
	plan.Telemetry = true
	runner, err := t.suite.NewRunner(plan)
	if err != nil {
		return nil, 0, err
	}
	sp := t.rec.start(t.part, traceID, "core.Runner.Run")
	defer sp.end()
	var res *aibench.RunResult
	a0 := heapAllocs()
	err = bounded(ctx, passTimeout, func(ctx context.Context) error {
		var err error
		res, err = runner.Run(ctx, nil)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	if res.Trace == nil || res.Metrics == nil || len(res.Trace.Spans) != len(res.Metrics.Spans) {
		return nil, 0, errors.New("telemetry run returned no aligned trace planes")
	}
	return res, heapAllocs() - a0, nil
}

// spanTree indexes a telemetry run's span planes by id.
type spanTree struct {
	res  *aibench.RunResult
	kids map[int][]int
}

func newSpanTree(res *aibench.RunResult) spanTree {
	st := spanTree{res: res, kids: map[int][]int{}}
	for _, s := range res.Trace.Spans {
		if s.Parent >= 0 {
			st.kids[s.Parent] = append(st.kids[s.Parent], s.ID)
		}
	}
	return st
}

func (st spanTree) ms(id int) float64 { return float64(st.res.Metrics.Spans[id].DurNS) / 1e6 }

// selfMS is a span's duration minus what its children cover.
func (st spanTree) selfMS(id int) float64 {
	d := st.ms(id)
	for _, c := range st.kids[id] {
		d -= st.ms(c)
	}
	return d
}

// models runs each benchmark's quasi-entire session as its own traced
// Runner.Run, serially so allocation is attributable, then a traced
// and an untraced suite pass for the tracing overhead.
func (t *tracer) models(ctx context.Context) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	byID := map[string]aibench.SessionResult{}
	for _, s := range t.ref {
		byID[s.ID] = s
	}
	calls, flops := map[string]int64{}, map[string]int64{}
	var epochs int
	var wallNS, busyNS, poolCalls int64
	for _, id := range trainIDs() {
		plan := suitePlan(t.o.seed, t.kernel)
		plan.Benchmarks = []string{id}
		res, alloc, err := t.runTracedPlan(ctx, plan, t.rec.newTrace("session:"+id))
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		checkPass(res.Sessions, []aibench.SessionResult{byID[id]}, 0, &t.out.tally)
		st := newSpanTree(res)
		var epochMS float64
		n := 0
		for _, s := range res.Trace.Spans {
			if s.Name == "epoch" {
				epochMS += st.ms(s.ID)
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("%s: trace has no epoch span", id)
		}
		epochs += n
		t.out.sample("models.epoch_ms."+id, epochMS/float64(n))
		t.out.sample("models.epoch_alloc_mb."+id, float64(alloc)/1e6/float64(n))
		for _, oc := range res.Trace.Counters.Kernel {
			calls[oc.Op] += oc.Calls
			flops[oc.Op] += oc.FLOPs
		}
		wallNS += res.Metrics.WallNS
		busyNS += res.Metrics.Pool.BusyNS
		poolCalls += res.Metrics.Pool.Calls
	}
	runtime.ReadMemStats(&ms1)
	var total int64
	for _, op := range kernelOps {
		t.out.sample("tensor.calls."+op, float64(calls[op]))
		t.out.sample("tensor.gflop."+op, float64(flops[op])/1e9)
		total += flops[op]
	}
	t.out.sample("tensor.effective_gflops", float64(total)/float64(wallNS))
	t.out.sample("parallel.pool_calls", float64(poolCalls))
	t.out.sample("parallel.busy_frac", float64(busyNS)/float64(wallNS)/float64(runtime.GOMAXPROCS(0)))
	t.out.sample("gc.cycles_per_epoch", float64(ms1.NumGC-ms0.NumGC)/float64(epochs))
	t.out.sample("gc.pause_ms_per_epoch", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/float64(epochs))
	return t.overhead(ctx)
}

// overhead times one untraced and one traced suite pass.
func (t *tracer) overhead(ctx context.Context) error {
	rate := map[bool]float64{}
	for _, traced := range []bool{false, true} {
		plan := suitePlan(t.o.seed, t.kernel)
		plan.Telemetry = traced
		runner, err := t.suite.NewRunner(plan)
		if err != nil {
			return err
		}
		sp := t.rec.start(t.part, t.rec.newTrace(fmt.Sprintf("pass:traced=%v", traced)), "core.Runner.Run")
		p, res, err := runPass(ctx, runner)
		sp.end()
		if err != nil {
			return err
		}
		checkPass(res.Sessions, t.ref, 0, &t.out.tally)
		rate[traced] = float64(p.epochs) / p.wall.Seconds()
	}
	t.out.sample("telemetry.overhead_frac", rate[false]/rate[true]-1)
	return nil
}

// dist runs the rpr-sharded plan traced and splits each epoch into the
// dist engine's phases by self time.
func (t *tracer) dist(ctx context.Context) error {
	res, _, err := t.runTracedPlan(ctx, rprPlan(t.o.seed, t.kernel), t.rec.newTrace("pass:rpr-sharded"))
	if err != nil {
		return err
	}
	checkPass(res.Sessions, t.rprRef, rprShards, &t.out.tally)
	st := newSpanTree(res)
	self := map[string]float64{}
	var benchMS, epochMS, stepMS float64
	var epochs, sessions int
	for _, s := range res.Trace.Spans {
		switch {
		case s.Parent == 0:
			benchMS += st.ms(s.ID)
			sessions++
		case s.Name == "epoch":
			epochMS += st.ms(s.ID)
			epochs++
		case s.Name == "step":
			stepMS += st.ms(s.ID)
		case s.Name == "compute" || s.Name == "allreduce" || s.Name == "bufsync" || s.Name == "apply":
			self[s.Name] += st.selfMS(s.ID)
		}
	}
	if epochs == 0 || stepMS == 0 {
		return errors.New("rpr-sharded trace has no epoch or step spans")
	}
	for _, name := range []string{"compute", "allreduce", "bufsync", "apply"} {
		t.out.sample("dist."+name+"_ms", self[name]/float64(epochs))
	}
	t.out.sample("dist.open_close_ms", (benchMS-epochMS)/float64(sessions))
	t.out.sample("dist.exposed_comm_frac", (self["allreduce"]+self["bufsync"]+self["apply"])/stepMS)
	c := res.Trace.Counters
	t.out.sample("dist.grains", float64(c.Grains))
	t.out.sample("dist.reduce_rounds", float64(c.ReduceRounds))
	t.out.sample("dist.reduce_mfloats", float64(c.ReduceFloats)/1e6)
	return nil
}

// One traced serving burst runs at least traceServeFor, and at most
// traceServeMax while it collects the samples its percentiles need.
const (
	traceServeFor = 3 * time.Second
	traceServeMax = 20 * time.Second
)

// serve drives the server for a burst with spans per request and
// /stats sampling. Served jobs run with telemetry off, as always.
func (t *tracer) serve(ctx context.Context) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	hot := hotSet(t.o.seed)
	l, err := startServer()
	if err != nil {
		return err
	}
	primed, err := prime(ctx, hc, l.url, hot)
	if err != nil {
		return errors.Join(err, l.stop(ctx))
	}
	needHit, needMiss := minSamples(0.99), minSamples(0.9)
	tr := drive(ctx, l, hc, t.o.seed, hot, primed, rosterIDs(), traceServeFor, traceServeMax,
		func(hits, misses int) bool { return hits >= needHit && misses >= needMiss }, false, t.rec, t.part)
	t.out.tally.add(tr.tally)
	if err := l.stop(ctx); err != nil {
		t.out.tally.fail("shutdown", err.Error())
	}
	for _, m := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"server.ttfb_ms_p50.miss", tr.missTTFB, 0.5},
		{"server.hit_ms_p50", tr.hit, 0.5},
		{"server.hit_ms_p99", tr.hit, 0.99},
		{"server.miss_ms_p50", tr.mis, 0.5},
		{"server.miss_ms_p90", tr.mis, 0.9},
	} {
		v, err := percentile(m.xs, m.q)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		t.out.sample(m.name, v)
	}
	var depth, busy float64
	for _, s := range tr.statSamples {
		depth += float64(s.QueueDepth)
		busy += float64(s.WorkersBusy) / float64(s.Workers)
	}
	if n := float64(len(tr.statSamples)); n > 0 {
		t.out.sample("server.queue_depth_mean", depth/n)
		t.out.sample("server.workers_busy_frac", busy/n)
	}
	t.out.sample("server.cache_hit_ratio", float64(len(tr.hit))/float64(tr.tally.attempted))
	t.out.sample("server.rejected", float64(tr.rejected))
	return nil
}

// probeReps is how many timed calls each probe makes.
const probeReps = 5

// probes times direct calls into tensor, results, gpusim and core.
func (t *tracer) probes(ctx context.Context) error {
	rng := rand.New(rand.NewSource(t.o.seed))
	for _, sh := range []struct {
		name    string
		m, k, n int
	}{{"sq512", 512, 512, 512}, {"skinny", 64, 2048, 64}, {"fat", 2048, 64, 2048}} {
		x := tensor.Randn(rng, 0, 1, sh.m, sh.k)
		y := tensor.Randn(rng, 0, 1, sh.k, sh.n)
		flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
		allocName := ""
		if sh.name == "sq512" {
			allocName = "tensor.matmul_alloc_kb.sq512"
		}
		t.probe("tensor.MatMul "+sh.name, func() *tensor.Tensor { return tensor.MatMul(x, y) },
			"tensor.matmul_gflops."+sh.name, flops, allocName)
	}
	x := tensor.Randn(rng, 0, 1, 8, 32, 32, 32)
	w := tensor.Randn(rng, 0, 1, 64, 32, 3, 3)
	p := tensor.Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	convFlops := 2 * 8.0 * 32 * 32 * 32 * 3 * 3 * 64
	t.probe("tensor.Conv2D resblock", func() *tensor.Tensor { return tensor.Conv2D(x, w, p) },
		"tensor.conv2d_gflops.resblock", convFlops, "tensor.conv2d_alloc_kb.resblock")

	if err := t.resultsProbe(); err != nil {
		return fmt.Errorf("results: %w", err)
	}

	runner, err := t.suite.NewRunner(aibench.Plan{Kind: aibench.RunCharacterize, Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	sp := t.rec.start(t.part, "characterize:all", "core.Runner.Run")
	t0 := time.Now()
	var res *aibench.RunResult
	err = bounded(ctx, passTimeout, func(ctx context.Context) error {
		var err error
		res, err = runner.Run(ctx, nil)
		return err
	})
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("gpusim: %w", err)
	}
	if n, want := len(res.Records()), len(t.suite.All()); n != want {
		t.out.tally.fail("characterize", fmt.Sprintf("%d characterizations, want %d", n, want))
	} else {
		t.out.tally.ok()
	}
	t.out.sample("gpusim.characterize_all_ms", float64(d)/1e6)

	var nr []float64
	for i := 0; i < 20; i++ {
		sp := t.rec.start(t.part, "newrunner", "core.NewRunner")
		t0 := time.Now()
		_, err := t.suite.NewRunner(suitePlan(t.o.seed, t.kernel))
		nr = append(nr, float64(time.Since(t0))/1e6)
		sp.end()
		if err != nil {
			return err
		}
	}
	t.out.sample("core.newrunner_ms", median(nr))
	return nil
}

// probe times probeReps calls of fn; every call's output must be
// bitwise-equal to the first's.
func (t *tracer) probe(spanName string, fn func() *tensor.Tensor, gflopsName string, flops float64, allocName string) {
	var first []float64
	for i := 0; i < probeReps; i++ {
		sp := t.rec.start(t.part, "", spanName)
		a0 := heapAllocs()
		t0 := time.Now()
		out := fn()
		d := time.Since(t0)
		alloc := heapAllocs() - a0
		sp.end()
		t.out.sample(gflopsName, flops/d.Seconds()/1e9)
		if allocName != "" {
			t.out.sample(allocName, float64(alloc)/1e3)
		}
		if first == nil {
			first = out.Data
			t.out.tally.ok()
			continue
		}
		same := len(out.Data) == len(first)
		for j := 0; same && j < len(first); j++ {
			same = math.Float64bits(out.Data[j]) == math.Float64bits(first[j])
		}
		if same {
			t.out.tally.ok()
		} else {
			t.out.tally.fail("probe-mismatch", spanName+" output differs between calls")
		}
	}
}

// resultsProbe writes the suite reference pass's records through
// results.Writer many times over, reads them back with results.Read,
// and checks the round trip.
func (t *tracer) resultsProbe() error {
	const reps = 40
	recs := make([]aibench.Record, len(t.ref))
	for i := range t.ref {
		recs[i] = aibench.Record{Kind: aibench.KindSession, Session: &t.ref[i]}
	}
	var buf bytes.Buffer
	sp := t.rec.start(t.part, "", "results.Writer.Write")
	t0 := time.Now()
	w := results.NewWriter(&buf, t.refMeta)
	for r := 0; r < reps; r++ {
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	wd := time.Since(t0)
	sp.end()
	sp = t.rec.start(t.part, "", "results.Read")
	t0 = time.Now()
	s, err := results.Read(bytes.NewReader(buf.Bytes()))
	rd := time.Since(t0)
	sp.end()
	if err != nil {
		return err
	}
	n := reps * len(recs)
	t.out.sample("results.write_us_per_record", float64(wd)/1e3/float64(n))
	t.out.sample("results.read_mb_per_s", float64(buf.Len())/1e6/rd.Seconds())
	if len(s.Records) != n {
		t.out.tally.fail("results-roundtrip", fmt.Sprintf("read %d records, wrote %d", len(s.Records), n))
		return nil
	}
	for i, rec := range s.Records[:len(recs)] {
		if rec.Session == nil {
			t.out.tally.fail("results-roundtrip", "decoded a non-session record")
			return nil
		}
		if d := sessionDiff(*rec.Session, t.ref[i]); d != "" {
			t.out.tally.fail("results-roundtrip", d)
			return nil
		}
	}
	t.out.tally.ok()
	return nil
}
