package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// Request IDs are a per-process random prefix plus a sequence number:
// unique across restarts (the prefix) yet cheap and ordered within one
// process (the counter). The ID is returned in X-Request-Id, attached to
// every structured log line, and stamped on the root span as its
// request_id attribute, so a slow request in the access log can be
// joined to its span tree in /debug/traces.
var reqPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var reqSeq atomic.Uint64

func newRequestID() string {
	var buf [8]byte
	n := reqSeq.Add(1)
	for i := len(buf) - 1; i >= 0; i-- {
		buf[i] = '0' + byte(n%10)
		n /= 10
	}
	return reqPrefix + "-" + string(buf[:])
}

// inboundRequestID returns a sanitized X-Request-Id from the request, or
// "" when absent or unacceptable. Forwarding peers set it so one ID
// joins both nodes' access logs and traces; the shape check keeps hostile
// clients from injecting log-breaking bytes through the header.
func inboundRequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

type reqIDKey struct{}

// RequestID returns the request ID the logging middleware attached to
// the context ("" outside a server request).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// statusWriter captures the response status and size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so SSE streaming works through
// the access-log wrapper (the /v1/jobs/{id}/events handler requires an
// http.Flusher).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP tags the request with an ID, dispatches, and emits one
// structured access-log line. Scrape-style routes (/healthz, /metrics)
// log at Debug so a 15s Prometheus interval does not drown the solve
// traffic logged at Info.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// A well-formed inbound ID is adopted (the forwarding peer's, so one
	// ID spans the hop); otherwise a fresh one is minted.
	id := inboundRequestID(r)
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set("X-Request-Id", id)
	r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	level := s.logger.Info
	if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
		level = s.logger.Debug
	}
	level("request",
		"id", id,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status,
		"bytes", sw.bytes,
		"duration_ms", float64(time.Since(start).Nanoseconds())/1e6,
	)
}

// handleTraces serves the ring's span trees, newest first; a traced
// solve's per-iteration samples sit on its solve span.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(s.traces.Snapshot())
}

// DebugHandler returns the opt-in debug mux: net/http/pprof under
// /debug/pprof/ plus the span ring under /debug/traces. It is a
// separate handler so operators bind it to a loopback-only port
// (memserve -debug-addr) instead of exposing profiling to solve
// traffic.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}
