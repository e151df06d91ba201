package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aibench"
	"aibench/internal/results"
	"aibench/internal/server"
)

// serve-mixed drives an in-process server.Server on loopback with
// closed-loop clients, the way `aibench submit` and CI use it: each
// client waits for its reply before sending the next request. Most
// requests repeat a hot set primed during set-up and should be served
// from the result cache; the rest are fresh-seed quasi-entire sessions
// of small benchmarks, alternating naive and blocked kernels so the
// server's kernel gate serializes them, plus characterize plans that
// run gpusim. The cache evicts in insertion order, so the fresh misses
// push hot entries out and some repeats miss: that working-set effect
// stays in the numbers. Hits and misses are told apart by the
// server's X-Cache header, not by what the client intended.

const (
	serveClients = 2
	serveEpochs  = 3
	// reqTimeout bounds one request, send to last body byte.
	reqTimeout      = 10 * time.Second
	shutdownTimeout = 10 * time.Second
	// A block of blockLen requests holds exactly blockFresh fresh
	// sessions and blockChar fresh characterizations, the rest hot
	// repeats, so every seed sees the same mix.
	blockLen   = 20
	blockFresh = 3
	blockChar  = 1
)

// smallIDs are the benchmarks the served sessions train: the two
// quickest to train that data.Ratings does not feed (see ratingsIDs).
var smallIDs = []string{"DC-AI-C16", "MLPerf-RL"}

var serveKernels = []string{"naive", "blocked"}

// request is one plan a client submits.
type request struct {
	body []byte
	// hot is the index into the hot set, or -1 for a fresh plan.
	hot int
	// records is how many result records a clean stream carries.
	records int
}

func newRequest(p server.PlanRequest, hot int) request {
	body, err := json.Marshal(p)
	if err != nil {
		panic(err) // a PlanRequest of strings and numbers always marshals
	}
	return request{body: body, hot: hot, records: len(p.Benchmarks)}
}

func sessionRequest(id, kernel string, seed int64, hot int) request {
	return newRequest(server.PlanRequest{
		Kind: "session", Session: "quasi-entire", Epochs: serveEpochs,
		Benchmarks: []string{id}, Kernel: kernel, Seed: seed,
	}, hot)
}

// hotSeeds spaces each workload seed's plan seeds apart, so no two
// workload seeds share a plan; fresh plans take seeds above the hot
// set's.
func hotSeeds(seed int64) int64 { return seed * 1_000_000_000 }

// hotSet is every small benchmark under both kernels at two seeds.
func hotSet(seed int64) []request {
	var hot []request
	for s := int64(0); s < 2; s++ {
		for _, k := range serveKernels {
			for _, id := range smallIDs {
				hot = append(hot, sessionRequest(id, k, hotSeeds(seed)+s, len(hot)))
			}
		}
	}
	return hot
}

// deck generates one client's request sequence. Fresh plans cycle
// evenly rather than at random: sessions through every (benchmark,
// kernel) pair, characterize pairs through the roster from a seeded
// offset. A miss's cost depends on what it runs, so an even cycle keeps
// the mix, and with it every per-job figure, the same from seed to seed.
type deck struct {
	rng    *rand.Rand
	hot    []request
	roster []string
	client int64
	base   int64
	block  []int // kinds of the current block's requests: 0 hot, 1 fresh session, 2 fresh characterize
	fresh  int64
	// sessions and chars count the fresh plans of each kind so far;
	// offset is where this client's characterize cycle starts.
	sessions, chars, offset int
}

func newDeck(seed int64, client int, hot []request, roster []string) *deck {
	rng := rand.New(rand.NewSource(seed*int64(serveClients) + int64(client)))
	return &deck{
		rng: rng, hot: hot, roster: roster, client: int64(client), base: hotSeeds(seed) + 1000,
		offset: rng.Intn(len(roster)),
	}
}

func (d *deck) next() request {
	if len(d.block) == 0 {
		d.block = make([]int, blockLen)
		for i := 0; i < blockFresh+blockChar; i++ {
			d.block[i] = 1
			if i >= blockFresh {
				d.block[i] = 2
			}
		}
		d.rng.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
	}
	kind := d.block[0]
	d.block = d.block[1:]
	if kind == 0 {
		return d.hot[d.rng.Intn(len(d.hot))]
	}
	d.fresh++
	seed := d.base + d.fresh*serveClients + d.client // distinct across clients and requests
	if kind == 2 {
		n := len(d.roster)
		i := (d.offset + d.chars) % n
		d.chars++
		return newRequest(server.PlanRequest{Kind: "characterize", Benchmarks: []string{d.roster[i], d.roster[(i+n/2)%n]}, Seed: seed}, -1)
	}
	k := len(serveKernels)
	pair := d.sessions % (len(smallIDs) * k)
	d.sessions++
	return sessionRequest(smallIDs[pair/k], serveKernels[pair%k], seed, -1)
}

// liveServer is a started server.Server behind an http.Server on a
// loopback port.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Workers: runtime.NumCPU()})
	srv.Start()
	l := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: reqTimeout},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop drains the job server and the HTTP server under one deadline and
// waits for the serving goroutine to return.
func (l *liveServer) stop(ctx context.Context) error {
	return bounded(ctx, shutdownTimeout, func(ctx context.Context) error {
		err := l.srv.Shutdown(ctx)
		if herr := l.hs.Shutdown(ctx); err == nil {
			err = herr
		}
		if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	})
}

// response is one completed exchange.
type response struct {
	status int
	hit    bool
	body   []byte
	// ttfb is send to response headers, which the server flushes with
	// the first record (a hit writes its whole body at once); lat is
	// send to the last body byte.
	ttfb, lat time.Duration
}

func submit(ctx context.Context, hc *http.Client, url string, r request) (response, error) {
	ctx, cancel := context.WithTimeout(ctx, reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/jobs", bytes.NewReader(r.body))
	if err != nil {
		return response{}, err
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	out := response{status: resp.StatusCode, hit: resp.Header.Get("X-Cache") == "hit", ttfb: time.Since(t0)}
	out.body, err = io.ReadAll(resp.Body)
	out.lat = time.Since(t0)
	return out, err
}

// checkStream decodes a miss body: it must be a clean result stream
// with no error envelope, no truncated tail, the expected record count,
// and no failed or interrupted session.
func checkStream(body []byte, records int) (kind, detail string) {
	s, err := results.Read(bytes.NewReader(body))
	switch {
	case err != nil:
		return "decode", err.Error()
	case s.Skipped > 0:
		return "error-envelope", strings.TrimSpace(string(body[bytes.LastIndexByte(bytes.TrimSpace(body), '\n')+1:]))
	case s.Truncated:
		return "truncated", "stream ends mid-record"
	case len(s.Records) != records:
		return "record-count", fmt.Sprintf("%d records, want %d", len(s.Records), records)
	}
	for _, rec := range s.Records {
		if ss := rec.Session; ss != nil && (ss.Error != "" || ss.Interrupted) {
			return "session-error", ss.ID + ": " + ss.Error
		}
	}
	return "", ""
}

// checkResponse checks one response: a hot plan's body, hit or miss,
// must be byte-identical to its primed first miss; a fresh plan must
// miss and stream cleanly.
func checkResponse(r request, resp response, primed [][]byte) (kind, detail string) {
	switch {
	case resp.status == http.StatusTooManyRequests:
		return "rejected", "429 queue full"
	case resp.status != http.StatusOK:
		return "http-status", fmt.Sprintf("%d: %.200s", resp.status, resp.body)
	case r.hot >= 0:
		if !bytes.Equal(resp.body, primed[r.hot]) {
			if resp.hit {
				return "hit-mismatch", fmt.Sprintf("hot plan %d: cached body differs from its first miss", r.hot)
			}
			return "miss-mismatch", fmt.Sprintf("hot plan %d: rerun body differs from its first miss", r.hot)
		}
		return "", ""
	case resp.hit:
		return "unexpected-hit", "a fresh plan was answered from the cache"
	}
	return checkStream(resp.body, r.records)
}

// prime submits every hot plan once to a fresh server; each must miss
// and stream cleanly, and its body becomes the reference its repeats
// are checked against.
func prime(ctx context.Context, hc *http.Client, url string, hot []request) ([][]byte, error) {
	primed := make([][]byte, len(hot))
	for i, r := range hot {
		resp, err := submit(ctx, hc, url, r)
		if err != nil {
			return nil, fmt.Errorf("priming hot plan %d: %w", i, err)
		}
		if resp.status != http.StatusOK || resp.hit {
			return nil, fmt.Errorf("priming hot plan %d: status %d hit=%v", i, resp.status, resp.hit)
		}
		if kind, detail := checkStream(resp.body, r.records); kind != "" {
			return nil, fmt.Errorf("priming hot plan %d: %s: %s", i, kind, detail)
		}
		primed[i] = resp.body
	}
	return primed, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients + 1, DisableCompression: true,
	}}
}

// serveSetup starts a server and primes the hot set, setupReps times;
// every repetition's primed bodies must be byte-identical. All but the
// last server are stopped; the last is returned running.
func serveSetup(ctx context.Context, hc *http.Client, hot []request) (*liveServer, [][]byte, []float64, error) {
	var l *liveServer
	var primed [][]byte
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if l != nil {
			if err := l.stop(ctx); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if l, err = startServer(); err != nil {
			return nil, nil, nil, err
		}
		p, err := prime(ctx, hc, l.url, hot)
		if err != nil {
			return nil, nil, nil, errors.Join(err, l.stop(ctx))
		}
		setups = append(setups, time.Since(t0).Seconds())
		for j := range primed {
			if !bytes.Equal(p[j], primed[j]) {
				return nil, nil, nil, errors.Join(fmt.Errorf("hot plan %d streams differently on a fresh server", j), l.stop(ctx))
			}
		}
		primed = p
	}
	return l, primed, setups, nil
}

// traffic is what the clients measured over one window.
type traffic struct {
	tally         tally
	window        time.Duration
	cpu           time.Duration
	alloc         uint64
	all, hit, mis []float64 // latencies in ms of good responses
	missTTFB      []float64
	statSamples   []statsSample
	rejected      int64
}

// statsSample is one read of the server's /stats.
type statsSample struct {
	QueueDepth   int64 `json:"queue_depth"`
	WorkersBusy  int64 `json:"workers_busy"`
	Workers      int64 `json:"workers"`
	JobsRejected int64 `json:"jobs_rejected"`
}

// drive runs the closed-loop clients for runFor, and past it until
// enough(hits, misses) holds or limit passes. With a recorder, it
// records a span per request and samples /stats.
func drive(ctx context.Context, l *liveServer, hc *http.Client, seed int64, hot []request, primed [][]byte, roster []string,
	runFor, limit time.Duration, enough func(hits, misses int) bool, corrupt bool, rec *recorder, parent *span) traffic {
	var tr traffic
	var mu sync.Mutex
	// corrupted turns true at the one body --corrupt changes.
	var corrupted atomic.Bool
	corrupted.Store(!corrupt)
	start := time.Now()
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		return el < runFor || (!enough(len(tr.hit), len(tr.mis)) && el < limit)
	}
	stopStats := make(chan struct{})
	var sampler sync.WaitGroup
	if rec != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopStats:
					return
				case <-tick.C:
				}
				if s, err := readStats(ctx, hc, l.url); err == nil {
					mu.Lock()
					tr.statSamples = append(tr.statSamples, s)
					mu.Unlock()
				}
			}
		}()
	}
	a0, c0 := heapAllocs(), cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d := newDeck(seed, c, hot, roster)
			for more() {
				r := d.next()
				sp := rec.start(parent, rec.newTrace("req"), "server.POST /jobs")
				resp, err := submit(ctx, hc, l.url, r)
				sp.end()
				if err == nil && resp.hit && r.hot >= 0 && len(resp.body) > 0 && corrupted.CompareAndSwap(false, true) {
					resp.body[len(resp.body)/2] ^= 1
				}
				var kind, detail string
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					kind, detail = "deadline", fmt.Sprintf("request exceeded %v", reqTimeout)
				case err != nil:
					kind, detail = "transport", err.Error()
				default:
					kind, detail = checkResponse(r, resp, primed)
				}
				mu.Lock()
				if kind != "" {
					tr.tally.fail(kind, detail)
				} else {
					tr.tally.ok()
					ms := float64(resp.lat) / 1e6
					tr.all = append(tr.all, ms)
					if resp.hit {
						tr.hit = append(tr.hit, ms)
					} else {
						tr.mis = append(tr.mis, ms)
						tr.missTTFB = append(tr.missTTFB, float64(resp.ttfb)/1e6)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	tr.window = time.Since(start)
	tr.alloc = heapAllocs() - a0
	tr.cpu = cpuTime() - c0
	close(stopStats)
	sampler.Wait()
	if rec != nil {
		if s, err := readStats(ctx, hc, l.url); err == nil {
			tr.rejected = s.JobsRejected
		}
	}
	return tr
}

func readStats(ctx context.Context, hc *http.Client, url string) (statsSample, error) {
	var s statsSample
	ctx, cancel := context.WithTimeout(ctx, reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

func rosterIDs() []string {
	var ids []string
	for _, b := range aibench.NewSuite().All() {
		ids = append(ids, b.ID)
	}
	return ids
}

// runServe measures serve-mixed untraced.
func runServe(ctx context.Context, o options) (*outcome, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	hot := hotSet(o.seed)
	l, primed, setups, err := serveSetup(ctx, hc, hot)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	need := minSamples(0.9)
	rss := watchRSS()
	tr := drive(ctx, l, hc, o.seed, hot, primed, rosterIDs(), o.runFor(), maxMeasure,
		func(hits, misses int) bool { return hits+misses >= need }, o.corrupt, nil, nil)
	peakRSS, err := rss.finish()
	if err != nil {
		return nil, err
	}
	out := &outcome{tally: tr.tally}
	if err := l.stop(ctx); err != nil {
		out.tally.fail("shutdown", err.Error())
	}
	p50, err := percentile(tr.all, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(tr.all, 0.9)
	if err != nil {
		return nil, err
	}
	n := len(tr.all)
	out.set("setup_s", median(setups), fmt.Sprintf("median of %d server starts with hot-set priming", len(setups)))
	out.set("jobs_per_s", float64(n)/tr.window.Seconds(), fmt.Sprintf("%d responses in %.1fs, %d clients", n, tr.window.Seconds(), serveClients))
	out.set("job_ms_p50", p50, fmt.Sprintf("send to last byte, %d responses", n))
	out.set("job_ms_p90", p90, fmt.Sprintf("send to last byte, %d responses", n))
	out.set("cpu_ms_per_job", float64(tr.cpu)/1e6/float64(n), fmt.Sprintf("server and client CPU time, %d responses", n))
	out.set("alloc_mb_per_job", float64(tr.alloc)/1e6/float64(n), fmt.Sprintf("%d responses", n))
	out.set("peak_rss_mb", peakRSS, "median over 1-s windows of the peak, server and clients")
	out.tail("hit_ms_p50", tr.hit, 0.5)
	out.tail("hit_ms_p99", tr.hit, 0.99)
	out.tail("miss_ms_p50", tr.mis, 0.5)
	out.tail("miss_ms_p90", tr.mis, 0.9)
	out.extra("cache_hit_ratio", float64(len(tr.hit))/float64(n), "ratio", fmt.Sprintf("%d hits, %d misses", len(tr.hit), len(tr.mis)))
	return out, nil
}
