package main

// The server benchmark record (BENCH_5.json): the serving layer's cost, as
// a client sees it over real loopback HTTP. Two quantities are recorded:
//
//   - cold request latency percentiles: every request carries a distinct
//     application, so each one pays upload + parse + solve + render;
//   - the session speedup: the same alternating single-file edit sequence
//     the incremental record (BENCH_4.json) uses, once as stateless
//     /v1/analyze submissions (re-upload + scratch solve per edit) and once
//     as PATCHes to a warm session. The ratio is what sessions exist to
//     buy; its gate is a 3x floor (lower than the library-level 5x floor
//     because both sides carry HTTP and JSON overhead, which the warm path
//     cannot amortize away).
//
// Ratios are same-process, same-machine, so they are stable across runner
// hardware in a way absolute milliseconds are not; the percentiles are
// recorded for trend reading, not gating.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"gator/internal/benchrec"
	"gator/internal/corpus"
	"gator/internal/server"
)

func serveRecord(run benchRun) (*benchrec.Record, error) {
	srv, err := server.New(server.Config{Workers: run.jobs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan struct{})
	go func() { httpSrv.Serve(ln); close(serveDone) }()
	defer func() {
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		<-serveDone
	}()
	c := server.NewClient(ln.Addr().String())

	// Cold latency percentiles: distinct random apps so the content-
	// addressed caches never short-circuit the measurement.
	const coldReqs = 50
	lats := make([]time.Duration, 0, coldReqs)
	for i := 0; i < coldReqs; i++ {
		sources, layouts := corpus.RandomApp(int64(1000 + i))
		start := time.Now()
		if _, err := c.Analyze(server.AnalyzeRequest{
			Name:       fmt.Sprintf("cold%d", i),
			Sources:    sources,
			Layouts:    layouts,
			ReportSpec: server.ReportSpec{Report: "views"},
		}); err != nil {
			return nil, fmt.Errorf("cold request %d: %w", i, err)
		}
		lats = append(lats, time.Since(start))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := lats[len(lats)/2]
	p99 := lats[(len(lats)*99)/100]

	// Warm-session speedup over the incremental benchmark's edit sequence.
	// Both sides render the cheap "summary" report so the comparison
	// isolates what sessions change — upload + solve — rather than report
	// rendering, which is identical work on either path.
	const nActs = 30 // keep in sync with incrementalRecord
	const edits = 20
	sources, layouts := corpus.ModularApp(nActs)
	base := sources["act1.alite"]
	va := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = btn;\n", 1)
	vb := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = p;\n", 1)
	if va == base || vb == base {
		return nil, fmt.Errorf("edit variants did not apply to act1.alite")
	}
	variant := func(i int) string {
		if i%2 == 0 {
			return va
		}
		return vb
	}

	// Stateless baseline: each edit as a full /v1/analyze submission.
	// NoCache keeps the result caches out of it — the point of comparison
	// is "no session state on the server", not "no caching anywhere".
	stateless := time.Duration(1<<63 - 1)
	for i := 0; i < edits; i++ {
		sources["act1.alite"] = variant(i)
		start := time.Now()
		if _, err := c.Analyze(server.AnalyzeRequest{
			Name: "edited", Sources: sources, Layouts: layouts,
			ReportSpec: server.ReportSpec{Report: "summary"},
			NoCache:    true,
		}); err != nil {
			return nil, fmt.Errorf("stateless edit %d: %w", i, err)
		}
		if d := time.Since(start); d < stateless {
			stateless = d
		}
	}

	// Warm path: one upload, then per-edit PATCHes against the session.
	sources["act1.alite"] = base
	open, err := c.OpenSession(server.AnalyzeRequest{
		Name: "edited", Sources: sources, Layouts: layouts,
		ReportSpec: server.ReportSpec{Report: "summary"},
	})
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	warm := time.Duration(1<<63 - 1)
	for i := 0; i < edits; i++ {
		start := time.Now()
		resp, err := c.PatchSession(open.SessionID, server.PatchRequest{
			Sources:    map[string]string{"act1.alite": variant(i)},
			ReportSpec: server.ReportSpec{Report: "summary"},
		})
		if err != nil {
			return nil, fmt.Errorf("session edit %d: %w", i, err)
		}
		if resp.Incremental == nil || resp.Incremental.Mode != "warm" {
			return nil, fmt.Errorf("edit %d fell off the warm path: %+v", i, resp.Incremental)
		}
		if d := time.Since(start); d < warm {
			warm = d
		}
	}

	rec := &benchrec.Record{Context: map[string]string{
		"workers":  strconv.Itoa(run.jobs),
		"requests": strconv.Itoa(coldReqs),
		"app":      fmt.Sprintf("modular-%d", nActs),
		"edits":    strconv.Itoa(edits),
	}}
	rec.Add(
		benchrec.LowerIsBetter("coldP50Ms", "ms", ms(p50)),
		benchrec.LowerIsBetter("coldP99Ms", "ms", ms(p99)),
		benchrec.LowerIsBetter("statelessMs", "ms", ms(stateless)),
		benchrec.LowerIsBetter("sessionMs", "ms", ms(warm)),
		benchrec.HigherIsBetter("sessionSpeedup", "x", float64(stateless)/float64(warm)).WithSlack(0.15).WithLimit(3),
	)
	return rec, nil
}
