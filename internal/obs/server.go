package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is the live sweep status served at /progress and printed by the
// -progress ticker: the host-side equivalent of a perf top for the
// evaluation pipeline.
type Progress struct {
	Done       uint64  `json:"done"`       // jobs completed
	Total      uint64  `json:"total"`      // jobs submitted so far
	CacheHits  uint64  `json:"cache_hits"` // jobs served from the memo cache
	HitRate    float64 `json:"hit_rate"`   // cache hits / jobs
	SimsPerSec float64 `json:"sims_per_sec"`
	ElapsedSec float64 `json:"elapsed_sec"`
	ETASec     float64 `json:"eta_sec"` // 0 when unknown or done
}

// String renders a one-line human summary.
func (p Progress) String() string {
	pct := 0.0
	if p.Total > 0 {
		pct = 100 * float64(p.Done) / float64(p.Total)
	}
	s := fmt.Sprintf("%d/%d jobs (%.0f%%), %.0f%% cache hits, %.1f sims/s",
		p.Done, p.Total, pct, 100*p.HitRate, p.SimsPerSec)
	if p.ETASec > 0 {
		s += fmt.Sprintf(", ETA %s", (time.Duration(p.ETASec * float64(time.Second))).Round(time.Second))
	}
	return s
}

// Server is the live introspection endpoint (-listen): expvar JSON at
// /debug/vars, Prometheus text at /metrics, the full net/http/pprof suite
// at /debug/pprof/, and sweep progress at /progress.
type Server struct {
	reg      *Registry
	progress func() Progress
	srv      *http.Server
	ln       net.Listener
}

// Slow-client limits for the long-lived HTTP listeners (this server and
// icicle-serve's): a client gets ReadHeaderTimeout to send its request
// headers, after which a connection that never does is closed, and an
// idle keep-alive connection is closed after IdleTimeout. Without them a
// client that opens connections and sends nothing holds a goroutine and
// a descriptor each, forever.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// readHeaderTimeout is ReadHeaderTimeout; tests shorten it.
var readHeaderTimeout = ReadHeaderTimeout

// NewHTTPServer returns an http.Server for h with the slow-client limits
// set.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: IdleTimeout}
}

// NewServer builds a server over reg. progress may be nil (the /progress
// endpoint then reports zeros).
func NewServer(reg *Registry, progress func() Progress) *Server {
	return &Server{reg: reg, progress: progress}
}

// expvar publication: one "icicle" var backed by whichever registry the
// most recent server was built over. expvar.Publish panics on duplicates,
// hence the Once + indirection.
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

func publishExpvar(reg *Registry) {
	expvarReg.Store(reg)
	expvarOnce.Do(func() {
		expvar.Publish("icicle", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	})
}

// Handler returns the server's routes (also used directly by tests).
func (s *Server) Handler() http.Handler {
	publishExpvar(s.reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		var p Progress
		if s.progress != nil {
			p = s.progress()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "icicle introspection\n\n/metrics\n/progress\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Start listens on addr (e.g. ":6060", "127.0.0.1:0") and serves in a
// background goroutine, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = NewHTTPServer(s.Handler())
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener. Nil- and not-started-safe.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
