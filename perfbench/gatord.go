package main

// An in-process gatord on a loopback listener, with the default
// server.Config, and a one-connection HTTP client per load-generating
// client.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"gator/internal/server"
	"gator/internal/trace"
)

type gatord struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startGatord() (*gatord, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, fmt.Errorf("starting gatord: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	g := &gatord{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(g.done)
		_ = g.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return g, nil
}

// stop drains the analysis side, closes the listener and waits for the
// serving goroutine to exit.
func (g *gatord) stop() {
	g.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.hs.Shutdown(ctx); err != nil {
		_ = g.hs.Close() // shutdown timed out; force the connections closed
	}
	<-g.done
}

// conn is one client's HTTP connection to gatord.
type conn struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, tr: tr, c: &http.Client{Transport: tr}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status. A 2xx body is decoded into
// out when out is non-nil; any other body is returned as the error text.
func (c *conn) do(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %s %s response: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// rejected reports whether a status is a refusal the error rate counts:
// body too large, overloaded, or draining.
func rejected(status int) bool {
	return status == http.StatusRequestEntityTooLarge || status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable
}

// scrape reads /metrics.json.
func (c *conn) scrape() (metricsSnapshot, error) {
	var data []byte
	if _, err := c.do("GET", "/metrics.json", nil, &data); err != nil {
		return metricsSnapshot{}, err
	}
	return parseMetrics(data)
}

// capturedTrace fetches the solver trace gatord captured for one request
// (?trace=1) as program events.
func (c *conn) capturedTrace(traceID string) ([]trace.Event, error) {
	var data []byte
	if _, err := c.do("GET", "/v1/debug/traces/"+traceID, nil, &data); err != nil {
		return nil, err
	}
	var out []trace.Event
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("decoding captured trace: %w", err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// serverStages adds the per-op means of gatord's stage histograms over a
// window, and the HTTP remainder: mean client latency minus the stages.
func serverStages(layers map[string]float64, before, after metricsSnapshot, ops int, clientMeanMs float64) error {
	sum := 0.0
	for _, st := range []string{"queue", "parse", "solve", "render"} {
		d, err := histogramDelta(before, after, stageKey(st))
		if err != nil {
			return err
		}
		v := float64(d.SumUS) / 1000 / float64(ops)
		layers["server."+st+"_ms"] = v
		sum += v
	}
	layers["server.http_ms"] = clientMeanMs - sum
	return nil
}
