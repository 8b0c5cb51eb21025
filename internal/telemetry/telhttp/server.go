// Package telhttp is the HTTP introspection surface over the telemetry
// registry and fleet. It lives apart from package telemetry so that the
// instrumented simulation libraries (which import telemetry for metric
// handles) never link net/http; only the CLIs that actually serve
// telemetry pay for the HTTP stack in their binaries.
package telhttp

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pacifier/internal/telemetry"
)

// Server is the embeddable HTTP introspection surface:
//
//	/metrics            Prometheus text exposition of the registry
//	/healthz            liveness (200 as long as the process serves)
//	/readyz             readiness (503 until SetReady(true); default ready)
//	/api/fleet          JSON snapshot of harness job states
//	/api/fleet/stream   the same, as an SSE feed of state transitions
//	/api/debug          JSON state of an attached debug session (404 until SetDebug)
//	/api/debug/stream   the same, as an SSE feed of position updates
//	/debug/pprof/       the standard pprof handlers
//
// It implements http.Handler, so it can be mounted under any mux, and
// Serve starts it standalone on a TCP address.
type Server struct {
	mux   *http.ServeMux
	reg   *telemetry.Registry
	fleet *telemetry.Fleet
	ready atomic.Bool
	start time.Time

	mu    sync.Mutex
	debug DebugSource
}

// NewServer builds a server over a registry (may be nil: /metrics then
// exports only the runtime gauges) and a fleet (may be nil: /api/fleet
// reports an empty fleet).
func NewServer(reg *telemetry.Registry, fleet *telemetry.Fleet) *Server {
	s := &Server{mux: http.NewServeMux(), reg: reg, fleet: fleet, start: time.Now()}
	s.ready.Store(true)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/api/fleet", s.handleFleet)
	s.mux.HandleFunc("/api/fleet/stream", s.handleFleetStream)
	s.mux.HandleFunc("/api/debug", s.handleDebug)
	s.mux.HandleFunc("/api/debug/stream", s.handleDebugStream)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// SetReady flips /readyz between 200 and 503.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// ServeHTTP dispatches to the introspection mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleMetrics renders the registry plus live Go runtime gauges. The
// runtime gauges are refreshed on every scrape (ReadMemStats is cheap at
// scrape cadence).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.reg
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("go_goroutines", "Number of live goroutines.").Set(int64(runtime.NumGoroutine()))
	reg.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.").Set(int64(ms.HeapAlloc))
	reg.Gauge("process_uptime_seconds", "Seconds since the telemetry server started.").
		Set(int64(time.Since(s.start).Seconds()))

	w.Header().Set("Content-Type", telemetry.PromContentType)
	_ = reg.WriteProm(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	snap := s.fleet.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// handleFleetStream serves the SSE feed: every job-state transition as
// one `event: job` message, in fleet sequence order, starting with a
// full replay of the transitions so far. The stream ends when the
// client disconnects.
func (s *Server) handleFleetStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch, cancel := s.fleet.Subscribe(1024)
	defer cancel()
	flusher.Flush()

	// Heartbeats keep proxies from timing the stream out while the
	// fleet is idle between jobs.
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		case u, ok := <-ch:
			if !ok {
				return
			}
			blob, err := json.Marshal(u)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: job\ndata: %s\n\n", u.Seq, blob)
			flusher.Flush()
		}
	}
}

// Serve starts the server on addr in a background goroutine and returns
// the bound address (useful with ":0") and a shutdown function. The
// logger, when non-nil, gets one line on start and one per accept
// failure.
func Serve(addr string, reg *telemetry.Registry, fleet *telemetry.Fleet, log *slog.Logger) (*Server, net.Addr, func(), error) {
	s := NewServer(reg, fleet)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("telhttp: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed && log != nil {
			log.Error("telemetry server stopped", "err", err)
		}
	}()
	if log != nil {
		log.Info("telemetry server listening",
			"addr", ln.Addr().String(),
			"endpoints", "/metrics /healthz /readyz /api/fleet /api/fleet/stream /debug/pprof/")
	}
	stop := func() { _ = hs.Close() }
	return s, ln.Addr(), stop, nil
}
