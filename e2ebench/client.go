package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"memsci/internal/core"
	"memsci/internal/serve"
)

// serveConfig mirrors cmd/memserve's defaults — engine parallelism 1,
// pool 4, tracing on — with the engine cache bounded at maxClusters
// (memserve's -cache-clusters deployment setting). Logs are discarded.
func serveConfig(maxClusters int) serve.Config {
	return serve.Config{
		MaxBodyBytes:   8 << 20,
		DefaultTimeout: 60 * time.Second,
		MaxTimeout:     5 * time.Minute,
		Cluster:        core.DefaultClusterConfig(),
		RefineCluster:  core.ReducedSliceConfig(serve.DefaultRefineBits),
		Seed:           serveSeed,
		Cache: serve.CacheConfig{
			MaxClusters:       maxClusters,
			PoolSize:          serve.DefaultPoolSize,
			EngineParallelism: 1,
		},
		TraceRingSize: 64,
		QueueDepth:    serve.DefaultQueueDepth,
		MaxQueueAge:   serve.DefaultMaxQueueAge,
		JobCapacity:   serve.DefaultJobCapacity,
		JobTTL:        10 * time.Minute,
		BatchMax:      serve.DefaultBatchMax,
		DrainGrace:    30 * time.Second,
	}
}

// serveSeed is memserve's default -seed.
const serveSeed = 1

// harness is an in-process server behind a loopback listener, plus the
// client the workload's callers share.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startHarness(cfg serve.Config) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	srv := serve.New(cfg)
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close shuts the listener and server down and waits for both.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: server shutdown:", err)
	}
	<-h.served
	h.client.CloseIdleConnections()
	h.srv.Close()
}

// exchange is one loopback HTTP request and its fully read response.
type exchange struct {
	status int
	body   []byte
}

func (h *harness) do(method, path string, body []byte) (exchange, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return exchange{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return exchange{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return exchange{}, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	return exchange{status: resp.StatusCode, body: b}, nil
}

// inProcess sends the same request straight to ServeHTTP, without the
// listener, the client or the socket.
func inProcess(srv http.Handler, method, path string, body []byte) exchange {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return exchange{status: rec.Code, body: rec.Body.Bytes()}
}

func statusErr(what string, ex exchange) error {
	return fmt.Errorf("%s: HTTP %d: %s", what, ex.status, strings.TrimSpace(string(ex.body)))
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }

var errNoDone = errors.New("event stream ended without a done event")

// readEvents consumes a job's Server-Sent Events stream until its done
// event, returning the number of events and the bytes read.
func readEvents(r io.Reader) (events, n int, err error) {
	cr := &countingReader{r: r}
	sc := bufio.NewScanner(cr)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		events++
		if strings.TrimPrefix(line, "event: ") == "done" {
			// The data line of the done event follows; the server closes
			// the stream after it.
			for sc.Scan() {
			}
			return events, cr.n, sc.Err()
		}
	}
	if err := sc.Err(); err != nil {
		return events, cr.n, err
	}
	return events, cr.n, errNoDone
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// events streams GET path over loopback until the done event.
func (h *harness) events(path string) (events, n int, err error) {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if !ok2xx(resp.StatusCode) {
		b, _ := io.ReadAll(resp.Body) // the status is the error; the body only explains it
		return 0, 0, statusErr("GET "+path, exchange{status: resp.StatusCode, body: b})
	}
	return readEvents(resp.Body)
}
