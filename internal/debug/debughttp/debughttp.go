// Package debughttp serves a live time-travel debugging session over
// HTTP, so a browser can follow `pacifier debug -http` while its user
// drives the REPL:
//
//	/api/debug          JSON snapshot of the session state
//	/api/debug/stream   the same, as an SSE feed of position updates
//
// It lives apart from package debug so that the debugger, the
// simulation libraries and the bench binary never link net/http.
package debughttp

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"
)

// DebugSource is a live time-travel debugging session as the server
// sees it: a JSON state document and a position-update feed. It is an
// interface (instead of *debug.Session) so the handler tests can
// substitute a fake.
type DebugSource interface {
	// DebugJSON renders the session state (position, clocks,
	// divergence) as a JSON document. It is called on the server's
	// goroutines while the session runs on its own, and the handler never
	// modifies the returned bytes, so a source may return a shared slice.
	DebugJSON() []byte
	// DebugSubscribe registers a position-update subscriber with the
	// given buffer size; cancel unregisters it.
	DebugSubscribe(buf int) (<-chan []byte, func())
}

// Handler serves src's two endpoints.
func Handler(src DebugSource) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/debug", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(src.DebugJSON())
		w.Write([]byte{'\n'})
	})
	mux.HandleFunc("/api/debug/stream", func(w http.ResponseWriter, r *http.Request) {
		serveStream(w, r, src)
	})
	return mux
}

// serveStream serves position updates as SSE `event: pos` messages,
// starting with the current state so a late subscriber renders
// immediately. Updates are published at command granularity (one per
// step/seek/continue), so the feed follows a session without drowning
// in per-chunk noise.
func serveStream(w http.ResponseWriter, r *http.Request, src DebugSource) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	// A full buffer only drops frames (positions are absolute); 256
	// holds every update of a scripted burst of commands while the
	// client catches up.
	ch, cancel := src.DebugSubscribe(256)
	defer cancel()

	seq := 0
	fmt.Fprintf(w, "id: %d\nevent: pos\ndata: %s\n\n", seq, src.DebugJSON())
	flusher.Flush()

	// Heartbeats keep proxies from timing the stream out while the
	// session sits at the prompt.
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
			seq++
			fmt.Fprintf(w, "id: %d\nevent: pos\ndata: %s\n\n", seq, u)
			flusher.Flush()
		}
	}
}

// Serve starts serving src on addr in a background goroutine and
// returns the bound address (useful with ":0") and a shutdown function,
// which closes every connection and returns once that goroutine has
// exited; calling it again is a no-op. The logger, when non-nil, gets
// one line if serving stops on an error.
func Serve(addr string, src DebugSource, log *slog.Logger) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("debughttp: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: Handler(src), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed && log != nil {
			log.Error("debug server stopped", "err", err)
		}
	}()
	stop := func() {
		// Close's error is the listener's; the server is down either way.
		_ = hs.Close()
		<-done
	}
	return ln.Addr(), stop, nil
}
