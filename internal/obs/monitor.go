package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	runtimepprof "runtime/pprof"
	"sync/atomic"
	"time"

	"asyncnoc/internal/core"
)

// monEngine and monProgress are the live sources behind the published
// expvar variables. expvar.Publish is global and panics on duplicate
// names, so the vars are registered once and read through these pointers;
// StartMonitor swaps the pointers instead of re-publishing.
var (
	monEngine   atomic.Pointer[core.Engine]
	monProgress atomic.Pointer[Progress]
	monPublish  = func() {
		expvar.Publish("asyncnoc.engine", expvar.Func(func() any {
			e := monEngine.Load()
			if e == nil {
				return nil
			}
			s := e.Snapshot()
			out := map[string]any{
				"workers":   s.Workers,
				"memo_hits": s.Hits, "memo_misses": s.Misses,
				"memo_hit_rate": s.HitRate(),
				"started":       s.Started, "completed": s.Completed,
				"in_flight": s.InFlight(), "remote_runs": s.RemoteRuns,
			}
			if s.HasStore {
				out["store"] = map[string]any{
					"hits": s.Store.Hits, "misses": s.Store.Misses,
					"corrupt": s.Store.Corrupt,
					"writes":  s.Store.Writes, "write_errors": s.Store.WriteErrors,
					"evictions": s.Store.Evictions,
				}
			}
			return out
		}))
		expvar.Publish("asyncnoc.progress", expvar.Func(func() any {
			p := monProgress.Load()
			if p == nil {
				return nil
			}
			done, total := p.Counts()
			out := map[string]any{"done": done, "total": total}
			if eta, ok := p.ETA(); ok {
				out["eta_seconds"] = eta.Seconds()
			}
			return out
		}))
	}
	monPublished atomic.Bool
)

// Monitor is a live observability endpoint for long sweeps: expvar
// counters (engine memo hit-rate, job progress/ETA, Go memstats) at
// /debug/vars and the full net/http/pprof surface at /debug/pprof/.
type Monitor struct {
	ln  net.Listener
	srv *http.Server
}

// PublishVars registers the asyncnoc expvar variables (once per
// process) and points them at engine and progress; either may be nil
// (the var then renders as null). StartMonitor calls it implicitly;
// servers that own their HTTP mux (asyncnocd) call it directly and
// mount expvar.Handler themselves.
func PublishVars(engine *core.Engine, progress *Progress) {
	if monPublished.CompareAndSwap(false, true) {
		monPublish()
	}
	monEngine.Store(engine)
	monProgress.Store(progress)
}

// StartMonitor serves the monitoring endpoint on addr (e.g. ":8090";
// ":0" picks a free port — see Addr). engine and progress may be nil;
// their vars then render as null.
func StartMonitor(addr string, engine *core.Engine, progress *Progress) (*Monitor, error) {
	PublishVars(engine, progress)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: monitor listen %s: %w", addr, err)
	}
	// A private mux: the monitor must not depend on (or leak into) the
	// process-global http.DefaultServeMux.
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m := &Monitor{ln: ln, srv: &http.Server{Handler: mux}}
	go m.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return m, nil
}

// Addr returns the bound address (resolves ":0").
func (m *Monitor) Addr() string { return m.ln.Addr().String() }

// Close stops serving.
func (m *Monitor) Close() error { return m.srv.Close() }

// Progress tracks a sweep's job completion for the monitoring endpoint
// and for CLI progress lines. Safe for concurrent use.
type Progress struct {
	total int64
	done  atomic.Int64
	start time.Time
}

// NewProgress starts tracking a sweep of total jobs.
func NewProgress(total int) *Progress {
	return &Progress{total: int64(total), start: time.Now()}
}

// JobDone records one completed job.
func (p *Progress) JobDone() { p.done.Add(1) }

// Counts returns (done, total).
func (p *Progress) Counts() (done, total int64) { return p.done.Load(), p.total }

// ETA linearly extrapolates the remaining wall time from progress so
// far; ok is false until at least one job finished.
func (p *Progress) ETA() (time.Duration, bool) {
	done, total := p.Counts()
	if done == 0 || total == 0 {
		return 0, false
	}
	elapsed := time.Since(p.start)
	remaining := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
	return remaining, true
}

// String renders a one-line progress report ("17/64 jobs, eta 12s").
func (p *Progress) String() string {
	done, total := p.Counts()
	if eta, ok := p.ETA(); ok && done < total {
		return fmt.Sprintf("%d/%d jobs, eta %s", done, total, eta.Round(time.Second))
	}
	return fmt.Sprintf("%d/%d jobs", done, total)
}

// StartCPUProfile begins a CPU profile into path and returns the stop
// function (flushes and closes the file).
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := runtimepprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() error {
		runtimepprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile snapshots the heap into path (after a GC, so the
// profile reflects live objects rather than garbage).
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	runtime.GC()
	if err := runtimepprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	return f.Close()
}
