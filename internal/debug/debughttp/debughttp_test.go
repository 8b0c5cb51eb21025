package debughttp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pacifier/internal/core"
	"pacifier/internal/debug"
	"pacifier/internal/record"
	"pacifier/internal/trace"
)

// fakeDebug is a minimal DebugSource for handler tests.
type fakeDebug struct {
	mu    sync.Mutex
	state string
	subs  []chan []byte
}

func (f *fakeDebug) DebugJSON() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return []byte(f.state)
}

func (f *fakeDebug) DebugSubscribe(buf int) (<-chan []byte, func()) {
	ch := make(chan []byte, buf)
	f.mu.Lock()
	f.subs = append(f.subs, ch)
	f.mu.Unlock()
	return ch, func() {}
}

func (f *fakeDebug) publish(b []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ch := range f.subs {
		ch <- b
	}
}

// sseReader reads one SSE message (the lines up to a blank line) at a
// time from a stream response.
type sseReader struct {
	t *testing.T
	r *bufio.Reader
}

func (s sseReader) next() string {
	s.t.Helper()
	var lines []string
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			s.t.Fatalf("stream read: %v (got %q)", err, lines)
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			return strings.Join(lines, "\n")
		}
		lines = append(lines, line)
	}
}

// openStream GETs /api/debug/stream from srv and checks its headers.
func openStream(t *testing.T, srv *httptest.Server) (sseReader, func()) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/api/debug/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("content-type %q", ct)
	}
	return sseReader{t: t, r: bufio.NewReader(resp.Body)}, func() { resp.Body.Close() }
}

// eventData returns the data line's payload of one SSE message.
func eventData(t *testing.T, ev string) string {
	t.Helper()
	for _, line := range strings.Split(ev, "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			return data
		}
	}
	t.Fatalf("event without data: %q", ev)
	return ""
}

func TestDebugEndpointJSON(t *testing.T) {
	h := Handler(&fakeDebug{state: `{"pos":3,"total":12}`})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/debug", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"pos":3`) {
		t.Fatalf("body %q", rec.Body.String())
	}
}

func TestDebugStreamSSE(t *testing.T) {
	src := &fakeDebug{state: `{"pos":0}`}
	srv := httptest.NewServer(Handler(src))
	defer srv.Close()
	events, done := openStream(t, srv)
	defer done()

	// Initial replay of the current state.
	if ev := events.next(); !strings.Contains(ev, `data: {"pos":0}`) {
		t.Fatalf("initial event %q", ev)
	}
	// A published position update flows through.
	src.publish([]byte(`{"pos":5}`))
	if ev := events.next(); !strings.Contains(ev, `data: {"pos":5}`) {
		t.Fatalf("update event %q", ev)
	}
}

// TestServeBindsAndStops drives Serve over a real listener, the path
// `pacifier debug -http` takes.
func TestServeBindsAndStops(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", &fakeDebug{state: `{"pos":1}`}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr.String() + "/api/debug")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"pos":1`) {
		t.Errorf("/api/debug over real listener: %d %q", resp.StatusCode, body)
	}
	stop()
	if _, err := http.Get("http://" + addr.String() + "/api/debug"); err == nil {
		t.Error("server still answering after stop")
	}
}

// TestRealSessionSeek serves a real debugging session — the debug-smoke
// recording, water-nsq on 4 cores × 2000 ops — and seeks it while a
// stream is open: the snapshot at /api/debug and the stream's next
// event must both equal the session's own Status.
func TestRealSessionSeek(t *testing.T) {
	app, err := trace.ProfileByName("water-nsq")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.Record(app.Generate(4, 2000, 1), core.DefaultOptions(), record.ModeGranule)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := core.NewDebugSession(rr, nil, record.ModeGranule, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(ses))
	defer srv.Close()
	events, done := openStream(t, srv)
	defer done()

	var initial debug.Status
	if err := json.Unmarshal([]byte(eventData(t, events.next())), &initial); err != nil {
		t.Fatal(err)
	}
	if initial.Pos != 0 || initial.Total != ses.Total() {
		t.Fatalf("initial event: pos %d total %d, want 0 of %d", initial.Pos, initial.Total, ses.Total())
	}

	// Forward, then back across checkpoints.
	for _, to := range []int64{ses.Total() * 3 / 4, ses.Total() / 4} {
		if err := ses.SeekTo(to); err != nil {
			t.Fatal(err)
		}
		want := ses.Status()
		if want.Pos != to {
			t.Fatalf("session at %d after seeking to %d", want.Pos, to)
		}

		var streamed debug.Status
		if err := json.Unmarshal([]byte(eventData(t, events.next())), &streamed); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(srv.URL + "/api/debug")
		if err != nil {
			t.Fatal(err)
		}
		var snap debug.Status
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]debug.Status{"/api/debug": snap, "stream event": streamed} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seek to %d: %s reports %+v, session %+v", to, name, got, want)
			}
		}
	}
}

// TestConcurrentGetsDuringSeeks polls /api/debug 50 times on one
// goroutine while the session seeks 50 times on another, as a browser
// does while the REPL runs. The handler serves the status the session
// last published and never reads the session itself, so the run is clean
// under -race, every snapshot is a whole Status, and once the seeks end
// the snapshot is the session's own.
func TestConcurrentGetsDuringSeeks(t *testing.T) {
	app, err := trace.ProfileByName("water-nsq")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.Record(app.Generate(4, 2000, 1), core.DefaultOptions(), record.ModeGranule)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := core.NewDebugSession(rr, nil, record.ModeGranule, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(ses))
	defer srv.Close()
	get := func() (debug.Status, error) {
		var st debug.Status
		resp, err := http.Get(srv.URL + "/api/debug")
		if err != nil {
			return st, err
		}
		defer resp.Body.Close()
		return st, json.NewDecoder(resp.Body).Decode(&st)
	}

	total := ses.Total()
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			st, err := get()
			if err == nil && (st.Total != total || st.Pos < 0 || st.Pos > total) {
				err = fmt.Errorf("pos %d of %d, want a position in [0, %d]", st.Pos, st.Total, total)
			}
			if err != nil {
				errs <- fmt.Errorf("GET %d: %w", i, err)
				return
			}
		}
		errs <- nil
	}()
	for i := int64(0); i < 50; i++ {
		if err := ses.SeekTo(i * 37 % (total + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	got, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if want := ses.Status(); !reflect.DeepEqual(got, want) {
		t.Errorf("after the seeks /api/debug reports %+v, session %+v", got, want)
	}
}
