package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asyncnoc/internal/core"
	"asyncnoc/internal/network"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/service"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/store"
)

// Closed loop: svcClients clients each wait for their reply before
// sending the next request, as the engine's remote runner and the
// service smoke test do. svcWorkers is the server engine's pool size.
const (
	svcClients = 2
	svcWorkers = 2
)

// The three request outcomes, in the order a round exercises them.
const (
	computed = iota // distinct job: simulated
	memoHit         // the same job again: served from the engine memo
	storeHit        // the same job on a fresh engine: served from the store
	outcomes
)

var outcomeNames = [outcomes]string{"computed", "memo", "store"}

// serviceJobs is the job set of one round: every n=8 network of the
// Table 1 trio under both benchmarks at eight loads below saturation,
// each with its own simulation seed, in a seed-dependent order.
func serviceJobs(slot int) []service.RunRequest {
	r := rng.New(simSeed(slot))
	var jobs []service.RunRequest
	for _, spec := range []network.Spec{core.Baseline(8), core.BasicNonSpeculative(8), core.OptHybridSpeculative(8)} {
		for _, bench := range []string{"UniformRandom", "Multicast10"} {
			for i := 1; i <= 8; i++ {
				jobs = append(jobs, service.RunRequest{
					Spec: spec, Bench: bench, LoadGFs: 0.05 * float64(i), Seed: r.Uint64(),
					WarmupPs:  int64(320 * sim.Nanosecond),
					MeasurePs: int64(3200 * sim.Nanosecond),
					DrainPs:   int64(800 * sim.Nanosecond),
				})
			}
		}
	}
	perm := r.Perm(len(jobs))
	shuffled := make([]service.RunRequest, len(jobs))
	for i, j := range perm {
		shuffled[i] = jobs[j]
	}
	return shuffled
}

// timedStore records a span around every (*store.Store).Get the engine
// makes; Put and Stats pass through.
type timedStore struct {
	*store.Store
	tr *tracer
}

func (s timedStore) Get(key string) (core.RunResult, bool) {
	start := time.Now()
	res, ok := s.Store.Get(key)
	s.tr.add("store.Store.Get", key, start, time.Now())
	return res, ok
}

// svcServer is one asyncnocd handler served in process over loopback:
// a store, an engine over it, and a client that never retries, so a
// shed or failed request counts as failed instead of being hidden.
type svcServer struct {
	st        *store.Store
	eng       *core.Engine
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *service.Client
}

// startServer opens the store in dir and serves the handler until ready.
// With tr set, store reads are traced and every simulation runs through
// probeRunner.
func startServer(dir string, tr *tracer, totals *probe) (*svcServer, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &svcServer{st: st, eng: core.NewEngine(svcWorkers), served: make(chan error, 1)}
	if tr != nil {
		s.eng.SetStore(timedStore{st, tr})
		s.eng.SetRemote(probeRunner(tr, svcWorkers, totals))
	} else {
		s.eng.SetStore(st)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: service.NewServer(s.eng, st).Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.transport = &http.Transport{MaxIdleConnsPerHost: svcClients}
	s.client = service.NewClient("http://" + ln.Addr().String())
	s.client.HTTPClient = &http.Client{Transport: s.transport}
	s.client.MaxAttempts = 1
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.client.Ready(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the server down, waits for it, and closes the store, which
// waits for its pending writes.
func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.transport.CloseIdleConnections()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// phaseOut is what the clients saw in one phase.
type phaseOut struct {
	resps []service.RunResponse
	errs  []error
	lat   []float64 // client-observed ms
	dur   time.Duration
}

// phase sends every job once from svcClients closed-loop clients.
func (s *svcServer) phase(jobs []service.RunRequest, tr *tracer) phaseOut {
	out := phaseOut{
		resps: make([]service.RunResponse, len(jobs)),
		errs:  make([]error, len(jobs)),
		lat:   make([]float64, len(jobs)),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				t0 := time.Now()
				out.resps[i], out.errs[i] = s.client.RunJob(context.Background(), jobs[i])
				t1 := time.Now()
				out.lat[i] = millis(t1.Sub(t0))
				tr.add("service.Client.RunJob", out.resps[i].Key, t0, t1)
			}
		}()
	}
	wg.Wait()
	out.dur = time.Since(start)
	return out
}

// svcRound is one round: the jobs computed and repeated on one server,
// then repeated on a fresh server over the same store directory.
type svcRound struct {
	setup    []float64 // seconds: store open, server start, ready
	phases   [outcomes]phaseOut
	stats    [2]core.StoreStats
	snaps    [2]core.EngineSnapshot
	getMs    []float64 // direct Store.Get of every key, traced rounds only
	requests int
}

func (rd *svcRound) dur() time.Duration {
	var d time.Duration
	for _, p := range rd.phases {
		d += p.dur
	}
	return d
}

func serviceRound(jobs []service.RunRequest, tr *tracer, totals *probe) (svcRound, error) {
	var rd svcRound
	dir, err := os.MkdirTemp(buildDir, "svc-store-")
	if err != nil {
		return rd, err
	}
	defer os.RemoveAll(dir)
	for i, outs := range [][]int{{computed, memoHit}, {storeHit}} {
		start := time.Now()
		s, err := startServer(dir, tr, totals)
		if err != nil {
			return rd, err
		}
		rd.setup = append(rd.setup, time.Since(start).Seconds())
		for _, o := range outs {
			rd.phases[o] = s.phase(jobs, tr)
			rd.requests += len(jobs)
		}
		rd.snaps[i] = s.eng.Snapshot()
		if err := s.stop(); err != nil {
			return rd, err
		}
		rd.stats[i] = s.st.Stats()
		if tr != nil && i == 1 {
			// Direct reads, after the counters are taken; a closed store
			// still serves them.
			for _, p := range rd.phases[storeHit].resps {
				start := time.Now()
				s.st.Get(p.Key)
				rd.getMs = append(rd.getMs, millis(time.Since(start)))
			}
		}
	}
	return rd, nil
}

// checkRound checks every response against the reference and the
// round's exact store and engine counts; it returns the failed requests.
func (r *runner) checkRound(rd svcRound) int {
	failed := 0
	for o, p := range rd.phases {
		for i, resp := range p.resps {
			ok := true
			if p.errs[i] != nil {
				ok = r.mismatch("%s request %d: %v", outcomeNames[o], i, p.errs[i])
			} else {
				ok = r.checkOutput(fmt.Sprintf("job/%02d", i), resp.Result)
				if resp.Cached != (o == memoHit) {
					ok = r.mismatch("%s request %d: cached=%t", outcomeNames[o], i, resp.Cached)
				}
			}
			if !ok {
				failed++
			}
		}
	}
	sims := rd.snaps[0].Started + rd.snaps[0].RemoteRuns + rd.snaps[1].Started + rd.snaps[1].RemoteRuns
	ok := r.checkCount("engine.sims", int64(sims))
	ok = r.checkCount("engine.memo_hits", int64(rd.snaps[0].Hits+rd.snaps[1].Hits)) && ok
	ok = r.checkCount("store.hits", int64(rd.stats[0].Hits+rd.stats[1].Hits)) && ok
	ok = r.checkCount("store.misses", int64(rd.stats[0].Misses+rd.stats[1].Misses)) && ok
	ok = r.checkCount("store.writes", int64(rd.stats[0].Writes+rd.stats[1].Writes)) && ok
	if !ok && failed == 0 {
		failed = 1
	}
	return failed
}

// svcSamples accumulates per-outcome samples over rounds.
type svcSamples struct {
	client, server [outcomes][]float64
	setup, peaks   []float64
	rounds         []float64
	requests       int
	busy           time.Duration
}

func (s *svcSamples) add(rd svcRound) {
	for o, p := range rd.phases {
		for i, resp := range p.resps {
			if p.errs[i] == nil {
				s.client[o] = append(s.client[o], p.lat[i])
				s.server[o] = append(s.server[o], resp.ElapsedMs)
			}
		}
	}
	s.setup = append(s.setup, rd.setup...)
	s.rounds = append(s.rounds, rd.dur().Seconds())
	s.requests += rd.requests
	s.busy += rd.dur()
}

// untracedRounds runs rounds until the budget is spent.
func (r *runner) untracedRounds(jobs []service.RunRequest, budget time.Duration) (svcSamples, error) {
	var s svcSamples
	begun := time.Now()
	for len(s.rounds) == 0 || time.Since(begun)+time.Duration(median(s.rounds)*float64(time.Second)) <= budget {
		runtime.GC()
		r.heap.reset()
		rd, err := serviceRound(jobs, nil, nil)
		if err != nil {
			return s, err
		}
		s.peaks = append(s.peaks, r.heap.peakMB())
		r.attempted += rd.requests
		r.failed += r.checkRound(rd)
		s.add(rd)
	}
	return s, nil
}

// measureService runs closed-loop rounds for the budget. setup_s is
// store open, server start and ready; op_p50_ms is the client-observed
// latency of computed requests.
func measureService(r *runner) error {
	jobs := serviceJobs(r.slot)
	s, err := r.untracedRounds(jobs, r.budget)
	if err != nil {
		return err
	}
	r.set("setup_s", median(s.setup), "s")
	r.set("op_p50_ms", median(s.client[computed]), "ms")
	r.set("ops_per_s", float64(s.requests)/s.busy.Seconds(), "1/s")
	r.set("peak_heap_mb", median(s.peaks), "MB")
	for o := range outcomeNames {
		note("svc_%s: p50 %.4f ms, tail %s ms; server p50 %.4f ms", outcomeNames[o],
			median(s.client[o]), tailOf(s.client[o]), median(s.server[o]))
	}
	note("svc_req_per_s %.1f over %d rounds of %d requests; setup p50 %.4f s",
		float64(s.requests)/s.busy.Seconds(), len(s.rounds), 3*len(jobs), median(s.setup))
	return nil
}

// traceService runs untraced rounds for half the budget, for the
// per-outcome latency split, then one traced round in which store reads
// are timed and every simulation runs through probeRunner. A request's
// service time is its client latency minus the server's ElapsedMs; the
// engine's is ElapsedMs minus the store read and the simulation.
func traceService(r *runner) error {
	if err := r.ladder(); err != nil {
		return err
	}
	jobs := serviceJobs(r.slot)
	s, err := r.untracedRounds(jobs, r.budget/2)
	if err != nil {
		return err
	}
	for o, name := range outcomeNames {
		transport := make([]float64, len(s.client[o]))
		for i := range transport {
			transport[i] = s.client[o][i] - s.server[o][i]
		}
		r.set("service.server_ms."+name, median(s.server[o]), "ms")
		r.set("service.transport_ms."+name, median(transport), "ms")
		if o != computed {
			r.set("svc."+name+"_p50_ms", median(s.client[o]), "ms")
		}
		r.set("svc."+name+"_tail_ms", tailOf(s.client[o]).Value, "ms")
		note("svc_%s: p50 %.4f ms, tail %s ms", name, median(s.client[o]), tailOf(s.client[o]))
	}

	runtime.GC()
	var totals probe
	rd, err := serviceRound(jobs, r.tr, &totals)
	if err != nil {
		return err
	}
	r.attempted += rd.requests
	failed := r.checkRound(rd)
	if !r.checkProbeCounts(totals) && failed == 0 {
		failed = 1
	}
	r.failed += failed

	var client, server, store time.Duration
	for _, p := range rd.phases {
		for i, resp := range p.resps {
			client += time.Duration(p.lat[i] * float64(time.Millisecond))
			server += time.Duration(resp.ElapsedMs * float64(time.Millisecond))
		}
	}
	for _, sp := range r.tr.spans {
		if sp.Name == "store.Store.Get" {
			store += time.Duration(sp.EndNs - sp.StartNs)
		}
	}
	r.tr.self["service"] = (client - server).Seconds()
	r.tr.self["store"] = store.Seconds()
	r.tr.self["core_build"] = totals.build.Seconds()
	r.tr.self["sim_network"] = totals.runUntil.Seconds()
	r.tr.self["core_collect"] = totals.collect.Seconds()
	r.tr.self["core_engine"] = (server - store - totals.build - totals.runUntil - totals.collect).Seconds()

	r.set("engine.sims", float64(rd.snaps[0].RemoteRuns+rd.snaps[1].RemoteRuns), "count")
	r.set("engine.memo_hits", float64(rd.snaps[0].Hits+rd.snaps[1].Hits), "count")
	r.set("store.hits", float64(rd.stats[0].Hits+rd.stats[1].Hits), "count")
	r.set("store.misses", float64(rd.stats[0].Misses+rd.stats[1].Misses), "count")
	r.set("store.writes", float64(rd.stats[0].Writes+rd.stats[1].Writes), "count")
	r.set("store.get_ms", median(rd.getMs), "ms")
	r.setProbeMetrics(totals)
	untraced := median(s.rounds)
	r.set("trace.overhead_frac", ratio(rd.dur().Seconds()-untraced, untraced), "ratio")
	r.set("trace.sim_network_share", ratio(totals.runUntil.Seconds(), client.Seconds()), "ratio")
	r.setSelf()
	note("round %.4f s untraced (p50 of %d), %.4f s traced", untraced, len(s.rounds), rd.dur().Seconds())
	return nil
}
