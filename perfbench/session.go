package main

// The session-edit workload: gatord over loopback with two closed-loop
// clients. Each client holds its own session on corpus.ModularApp and sends
// single-file body edits (PATCH /v1/sessions/{id}, the `this.stash = …`
// variants) asking for the SARIF report. The seed picks the edited file and
// the variant. This is the IDE/watch shape: the core layer runs its warm
// incremental path and the checkers re-run in full on every edit.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"gator"
	"gator/internal/corpus"
	"gator/internal/server"
)

const (
	sessionActivities = 120
	sessionClients    = 2
	// sessionWarmup is how many edits each client sends before timing.
	sessionWarmup = 3
	// sessionReplay is how many of a client's last edits the final check
	// replays through the library's incremental path.
	sessionReplay = 4
	// sessionProbeEdits bounds the edits the traced run re-lexes.
	sessionProbeEdits = 50
)

// stashVariants are the right-hand sides an edit may give `this.stash` in
// an activity's onCreate; every one keeps the file's declaration shape.
var stashVariants = []string{"back", "btn", "p", "w"}

type sessionWorkload struct {
	g       *gatord
	layouts map[string]string
	clients []*sessionClient

	// Traced-run accumulators (guarded by mu).
	mu        sync.Mutex
	edited    []string // edited sources, for the front-end probes
	warm      int
	edits     int
	retained  int
	retracted int
	totals    eventTotals
	rejects   int
	// before and after are /metrics.json scrapes around a traced window.
	before, after metricsSnapshot
	final         *libRun // the last verified scratch analysis
}

// edit is one applied change: file, previous and new content.
type edit struct{ file, old, new string }

type sessionClient struct {
	idx     int
	name    string
	conn    *conn
	id      string
	rng     *rand.Rand
	sources map[string]string
	tail    []edit // the last sessionReplay edits
	sarif   []byte // the last response's report
}

func (s *sessionWorkload) setup(seed int64, _ time.Duration) error {
	g, err := startGatord()
	if err != nil {
		return err
	}
	s.g = g
	sources, layouts := corpus.ModularApp(sessionActivities)
	s.layouts = layouts
	for i := 0; i < sessionClients; i++ {
		c := &sessionClient{
			idx:     i,
			name:    fmt.Sprintf("edit%d", i),
			conn:    newConn(g.base),
			rng:     rand.New(rand.NewSource(seed*7919 + int64(i))),
			sources: copyMap(sources),
		}
		body, err := json.Marshal(server.AnalyzeRequest{
			Name: c.name, Sources: c.sources, Layouts: layouts,
			ReportSpec: server.ReportSpec{Report: "sarif"},
		})
		if err != nil {
			return err
		}
		var resp server.AnalyzeResponse
		if _, err := c.conn.do("POST", "/v1/sessions", body, &resp); err != nil {
			return fmt.Errorf("opening session: %w", err)
		}
		c.id = resp.SessionID
		s.clients = append(s.clients, c)
		for k := 0; k < sessionWarmup; k++ {
			if _, _, err := s.patch(c, nil, 0); err != nil {
				return fmt.Errorf("warm-up edit: %w", err)
			}
		}
	}
	return nil
}

func (s *sessionWorkload) close() {
	for _, c := range s.clients {
		c.conn.close()
	}
	if s.g != nil {
		s.g.stop()
	}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// nextEdit picks a file and a variant other than the file's current one.
func (c *sessionClient) nextEdit() edit {
	file := fmt.Sprintf("act%d.alite", c.rng.Intn(sessionActivities))
	old := c.sources[file]
	cur := currentStash(old)
	v := c.rng.Intn(len(stashVariants) - 1)
	if v >= cur {
		v++
	}
	return edit{file: file, old: old, new: strings.Replace(old, stashLine(cur), stashLine(v), 1)}
}

func stashLine(variant int) string { return "\t\tthis.stash = " + stashVariants[variant] + ";\n" }

// currentStash returns which variant the file's `this.stash = …;` line in
// onCreate holds. onPanelClick's assignment (`= v`) is no variant.
func currentStash(src string) int {
	for i := range stashVariants {
		if strings.Contains(src, stashLine(i)) {
			return i
		}
	}
	panic("perfbench: an activity lost its this.stash assignment")
}

// patch sends one edit. It returns the op latency and the response; with
// tr set it records the op's spans and the server's captured trace.
func (s *sessionWorkload) patch(c *sessionClient, tr *recorder, id int) (time.Duration, *server.AnalyzeResponse, error) {
	e := c.nextEdit()
	body, err := json.Marshal(server.PatchRequest{
		Sources:    map[string]string{e.file: e.new},
		ReportSpec: server.ReportSpec{Report: "sarif"},
	})
	if err != nil {
		return 0, nil, err
	}
	path := "/v1/sessions/" + c.id
	if tr != nil {
		path += "?trace=1"
	}
	var t0 time.Duration
	if tr != nil {
		t0 = tr.now()
	}
	start := time.Now()
	var resp server.AnalyzeResponse
	status, err := c.conn.do("PATCH", path, body, &resp)
	lat := time.Since(start)
	if err != nil {
		if tr != nil && rejected(status) {
			s.mu.Lock()
			s.rejects++
			s.mu.Unlock()
		}
		return lat, nil, err
	}
	c.sources[e.file] = e.new
	c.tail = append(c.tail, e)
	if len(c.tail) > sessionReplay {
		c.tail = c.tail[1:]
	}
	c.sarif = []byte(resp.Output)
	if tr != nil {
		t1 := t0 + lat
		opID := tr.add(span{Name: "op", Op: id, Lane: c.idx, Start: t0, End: t1})
		events, err := c.conn.capturedTrace(resp.TraceID)
		if err != nil {
			return lat, nil, err
		}
		// The server's tracer starts when it receives the request, so its
		// events are anchored at the send time: durations are exact, and
		// every span stays inside the op.
		prog, _ := phaseSpans(events, t0)
		adopt(tr, prog, []span{{ID: opID, Op: id, Lane: c.idx, Start: t0, End: t1}})
		s.mu.Lock()
		s.totals.add(events)
		s.edits++
		if resp.Incremental != nil {
			if resp.Incremental.Mode == "warm" {
				s.warm++
			}
			s.retained += resp.Incremental.Retained
			s.retracted += resp.Incremental.Retracted
		}
		if len(s.edited) < sessionProbeEdits {
			s.edited = append(s.edited, e.new)
		}
		s.mu.Unlock()
	}
	return lat, &resp, nil
}

func (s *sessionWorkload) run(d time.Duration, tr *recorder) (*phase, error) {
	p := &phase{}
	if tr != nil {
		var err error
		if s.before, err = s.clients[0].conn.scrape(); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *sessionClient) {
			defer wg.Done()
			for id := c.idx; time.Now().Before(deadline); id += len(s.clients) {
				lat, resp, err := s.patch(c, tr, id)
				mu.Lock()
				p.attempted++
				switch {
				case err != nil:
					p.fail("%s: %v", c.name, err)
				case resp.Incremental == nil || resp.Output == "" || resp.ExitCode > 1:
					p.fail("%s: incomplete response (exit %d, %d output bytes)", c.name, resp.ExitCode, len(resp.Output))
				default:
					p.lat = append(p.lat, lat)
					p.verdicts++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.busy = time.Since(start)
	if tr != nil {
		var err error
		if s.after, err = s.clients[0].conn.scrape(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// verify checks each client's final session against the library: the last
// response's SARIF must equal a from-scratch Load → Analyze → CheckReport
// → SARIF of the same inputs, and replaying the client's last edits through
// gator.AnalyzeIncremental must stay warm and end at the scratch solution's
// projected facts.
func (s *sessionWorkload) verify(p *phase) {
	for _, c := range s.clients {
		lr, err := libraryRun(c.name, c.sources, s.layouts, gator.Options{})
		if err != nil {
			p.fail("%s: scratch analysis: %v", c.name, err)
			continue
		}
		s.final = lr
		if string(lr.sarif) != string(c.sarif) {
			p.fail("%s: final session SARIF differs from a scratch analysis", c.name)
		}
		if err := replayTail(c, s.layouts, lr.res.ProjectedFacts()); err != nil {
			p.fail("%s: %v", c.name, err)
		}
	}
}

// replayTail re-applies a client's last edits warm through the library and
// compares the final projected facts with want.
func replayTail(c *sessionClient, layouts map[string]string, want []string) error {
	state := copyMap(c.sources)
	for i := len(c.tail) - 1; i >= 0; i-- {
		state[c.tail[i].file] = c.tail[i].old
	}
	cache := gator.NewCache()
	prev, err := gator.AnalyzeIncremental(nil, state, layouts, gator.Options{}, cache)
	if err != nil {
		return fmt.Errorf("replay base: %w", err)
	}
	for _, e := range c.tail {
		state = copyMap(state)
		state[e.file] = e.new
		if prev, err = gator.AnalyzeIncremental(prev, state, layouts, gator.Options{}, cache); err != nil {
			return fmt.Errorf("replaying %s: %w", e.file, err)
		}
		if mode := prev.Incremental().Mode; mode != "warm" {
			return fmt.Errorf("replaying %s: mode %q, want warm", e.file, mode)
		}
	}
	got := prev.ProjectedFacts()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return fmt.Errorf("warm replay's projected facts (%d) differ from scratch (%d)", len(got), len(want))
	}
	return nil
}

func (s *sessionWorkload) layers(p *phase, tr *recorder) error {
	ops := len(p.lat)
	n := float64(ops)
	p.layers = map[string]float64{}
	addSpanLayers(p.layers, selfTimes(tr.snapshot()), ops)
	if len(s.edited) > 0 {
		err := addFrontEnd(p.layers, 1/float64(len(s.edited)), func() (frontEnd, error) {
			var sum frontEnd
			for _, src := range s.edited {
				fe, err := probeFrontEnd(map[string]string{"edited.alite": src}, nil)
				if err != nil {
					return sum, err
				}
				sum = sum.plus(fe)
			}
			return sum, nil
		})
		if err != nil {
			return err
		}
	}
	edits := float64(max(s.edits, 1))
	p.layers["core.iterations"] = float64(s.totals.iterations) / edits
	p.layers["core.retained"] = float64(s.retained) / edits
	p.layers["core.retracted"] = float64(s.retracted) / edits
	p.layers["core.warm_ratio"] = float64(s.warm) / edits
	p.layers["checks.dataflow_visits"] = float64(s.totals.dataflowVisits) / edits
	if s.totals.parseProbes > 0 {
		p.layers["cache.parse_hit_ratio"] = float64(s.totals.parseHits) / float64(s.totals.parseProbes)
	}
	if s.final != nil {
		p.layers["core.facts"] = float64(len(s.final.res.ProjectedFacts()))
		p.layers["checks.findings"] = float64(s.final.findings)
		p.layers["analysis.sarif_ms"] = ms(s.final.render)
	}
	sarifBytes := 0
	for _, c := range s.clients {
		sarifBytes += len(c.sarif)
	}
	p.layers["analysis.sarif_bytes"] = float64(sarifBytes) / float64(len(s.clients))
	p.layers["server.rejected"] = float64(s.rejects)
	var total time.Duration
	for _, l := range p.lat {
		total += l
	}
	return serverStages(p.layers, s.before, s.after, ops, ms(total)/n)
}
