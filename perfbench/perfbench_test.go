package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"aibench"
	"aibench/internal/dist"
	"aibench/internal/results"
)

// TestMain serves the process dist backend's replica workers: the
// backend re-execs the running binary, which under go test is this test
// binary.
func TestMain(m *testing.M) {
	if os.Getenv(dist.WorkerEnv) != "" {
		if err := aibench.RunDistWorker(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 when the tail must be refused
	}{
		{99, 0.9, 0},
		{100, 0.9, 90},
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{19, 0.5, 0},
		{21, 0.5, 11},
	} {
		got, err := percentile(ramp(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("percentile(n=%d, q=%v) = %v, want an error: fewer than %d samples beyond", c.n, c.q, got, minBeyond)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v", c.n, c.q, got, err, c.want)
		}
	}
	if minSamples(0.9) != 100 || minSamples(0.99) != 1000 {
		t.Errorf("minSamples(0.9)=%d minSamples(0.99)=%d, want 100 and 1000", minSamples(0.9), minSamples(0.99))
	}
}

func TestFailRatioCounting(t *testing.T) {
	var a, b tally
	if a.failRatio() != 0 {
		t.Fatalf("empty tally fail ratio = %v, want 0", a.failRatio())
	}
	a.ok()
	a.ok()
	a.fail("deadline", "request exceeded 10s")
	b.ok()
	b.fail("output-mismatch", "loss[0]")
	a.add(b)
	if a.attempted != 5 || a.failed != 2 || a.failRatio() != 0.4 {
		t.Fatalf("attempted=%d failed=%d ratio=%v, want 5, 2, 0.4", a.attempted, a.failed, a.failRatio())
	}
	if a.kinds["deadline"] != 1 || a.kinds["output-mismatch"] != 1 || len(a.reasons) != 2 {
		t.Fatalf("kinds=%v reasons=%v", a.kinds, a.reasons)
	}
}

func session() aibench.SessionResult {
	return aibench.SessionResult{
		ID: "DC-AI-C16", Kind: aibench.QuasiEntireSession, Epochs: 2, Kernel: "blocked",
		ReachedGoal: true, FinalQuality: 0.15, Target: 0.5, Losses: []float64{0.69, 0.68},
	}
}

func TestFlippedLossBitIsCaught(t *testing.T) {
	ref := []aibench.SessionResult{session()}
	got := []aibench.SessionResult{session()}
	var clean tally
	checkPass(got, ref, 0, &clean)
	if clean.failed != 0 || clean.attempted != 1 {
		t.Fatalf("identical pass: %+v", clean)
	}
	corruptSession(&got[0])
	if math.Float64bits(got[0].Losses[0])^math.Float64bits(ref[0].Losses[0]) != 1 {
		t.Fatal("corruptSession did not flip exactly one bit")
	}
	var bad tally
	checkPass(got, ref, 0, &bad)
	if bad.failed != 1 || bad.kinds["output-mismatch"] != 1 {
		t.Fatalf("one flipped loss bit was not caught: %+v", bad)
	}
}

func TestSessionFailuresAreNamed(t *testing.T) {
	ref := session()
	for _, c := range []struct {
		mut  func(*aibench.SessionResult)
		kind string
	}{
		{func(s *aibench.SessionResult) { s.ID = "" }, "not-run"},
		{func(s *aibench.SessionResult) { s.Error = "dist: replica 1 exited mid-run" }, "session-error"},
		{func(s *aibench.SessionResult) { s.Interrupted = true }, "interrupted"},
		{func(s *aibench.SessionResult) {
			s.Shards = 0
			s.FallbackReason = "requested shards=2 ... dist: process backend: spawning replica 0: exec: no such file"
		}, "replica-spawn"},
		{func(s *aibench.SessionResult) { s.FinalQuality = 0.16 }, "output-mismatch"},
	} {
		got := ref
		got.Shards = 2
		want := ref
		want.Shards = 2
		c.mut(&got)
		if kind, _ := checkSession(got, want, 2); kind != c.kind {
			t.Errorf("got kind %q, want %q", kind, c.kind)
		}
	}
}

func stream(t *testing.T, recs ...aibench.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := results.NewWriter(&buf, aibench.RunMeta{SuiteSHA: "x", Kernel: "blocked"})
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestChangedBodyByteIsCaught(t *testing.T) {
	s := session()
	body := stream(t, aibench.Record{Kind: aibench.KindSession, Session: &s})
	hot := request{hot: 0, records: 1}
	if kind, detail := checkResponse(hot, response{status: 200, hit: true, body: body}, [][]byte{body}); kind != "" {
		t.Fatalf("identical hit body flagged: %s: %s", kind, detail)
	}
	changed := append([]byte(nil), body...)
	changed[len(changed)/2] ^= 1
	if kind, _ := checkResponse(hot, response{status: 200, hit: true, body: changed}, [][]byte{body}); kind != "hit-mismatch" {
		t.Fatalf("one changed hit-body byte: got kind %q, want hit-mismatch", kind)
	}

	fresh := request{hot: -1, records: 1}
	if kind, detail := checkResponse(fresh, response{status: 200, body: body}, nil); kind != "" {
		t.Fatalf("clean miss flagged: %s: %s", kind, detail)
	}
	errLine := `{"v":1,"kind":"error","run":{"suite_sha":"x","seed":0,"kernel":"blocked","shards":0},"data":{"error":"boom"}}` + "\n"
	for _, c := range []struct {
		resp response
		kind string
	}{
		{response{status: 200, body: append(append([]byte(nil), body...), errLine...)}, "error-envelope"},
		{response{status: 200, body: append(append([]byte(nil), body...), `{"v":1,"kind":"sess`...)}, "truncated"},
		{response{status: 200, body: append(append([]byte(nil), body...), body...)}, "record-count"},
		{response{status: 200, hit: true, body: body}, "unexpected-hit"},
		{response{status: 429}, "rejected"},
		{response{status: 503, body: []byte("server draining")}, "http-status"},
	} {
		if kind, _ := checkResponse(fresh, c.resp, nil); kind != c.kind {
			t.Errorf("got kind %q, want %q", kind, c.kind)
		}
	}
}

func TestDeckIsSeededWithAFixedMix(t *testing.T) {
	hot := hotSet(7)
	roster := rosterIDs()
	a, b := newDeck(7, 0, hot, roster), newDeck(7, 0, hot, roster)
	other := newDeck(7, 1, hot, roster)
	fresh, seen := 0, map[string]bool{}
	for i := 0; i < 10*blockLen; i++ {
		ra, rb, ro := a.next(), b.next(), other.next()
		if !bytes.Equal(ra.body, rb.body) {
			t.Fatalf("request %d differs between two decks of one seed", i)
		}
		for _, r := range []request{ra, ro} {
			if r.hot >= 0 {
				continue
			}
			fresh++
			if seen[string(r.body)] {
				t.Fatalf("fresh plan repeated: %s", r.body)
			}
			seen[string(r.body)] = true
		}
	}
	if want := 2 * 10 * (blockFresh + blockChar); fresh != want {
		t.Fatalf("%d fresh plans in 10 blocks per client, want %d", fresh, want)
	}
}

func TestPinnedEnvironmentRefused(t *testing.T) {
	t.Setenv("AIBENCH_KERNEL", "naive")
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "suite-quasi"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Fatalf("exit %d with stdout %q, want 2 and no output", code, out.String())
	}
}

// TestCorruptionFailsTheRun runs the command itself with the seeded
// corruption: the result must say incorrect and the exit code be
// non-zero.
func TestCorruptionFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real suite passes")
	}
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "suite-quasi", "--seconds", "1", "--corrupt"}, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s%s", err, out.String(), errb.String())
	}
	if code == 0 || res.Correct || res.Failed != 1 || res.Attempted < minSamples(0.9) {
		t.Fatalf("exit %d, result %+v: the corrupted session was not caught", code, res)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// lists the command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayerDefs())
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i])
		}
	}
}
