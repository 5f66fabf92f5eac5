package main

// The serve-mixed workload: gatord over loopback, driven as an open loop at
// a fixed offered rate over at most two connections. Every request is a
// stateless POST /v1/analyze of a small corpus.RandomApp asking for SARIF;
// about half re-submit an earlier app, so the result cache answers them.
// Analysis is small here, and HTTP, JSON, queueing and cache hits dominate.
// The seed drives the RandomApp seeds and the repeat pattern.
//
// gatord runs in this process; the load generator runs in a child process
// (this binary with --loadgen). In one process the generator's timers would
// wait for the Go scheduler behind the server's goroutines, and its
// lateness, not the server, would set the tail. The child derives the same
// schedule from the seed and reports each request's timing and a hash of
// its output.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gator"
	"gator/internal/corpus"
	"gator/internal/server"
	"gator/internal/trace"
)

const (
	serveRate        = 200 // offered requests per second
	serveConns       = 2
	serveRepeatShare = 0.5
	serveWarmup      = 20
)

// serveApp is one distinct app of the schedule. Only its generator seed is
// kept, so the server's process holds little besides the server.
type serveApp struct {
	name string
	seed int64
}

func (a serveApp) inputs() (sources, layouts map[string]string) { return corpus.RandomApp(a.seed) }

// serveSchedule derives a seed's requests for runs totalling d, plus a
// margin: the distinct apps, and per request the app it submits.
func serveSchedule(seed int64, d time.Duration) ([]serveApp, []int) {
	rng := rand.New(rand.NewSource(seed))
	var apps []serveApp
	var sched []int
	n := int(d.Seconds()*serveRate) + serveRate
	for i := 0; i < n; i++ {
		if len(apps) > 0 && rng.Float64() < serveRepeatShare {
			sched = append(sched, rng.Intn(len(apps)))
			continue
		}
		apps = append(apps, serveApp{name: fmt.Sprintf("mix%d", len(apps)), seed: rng.Int63()})
		sched = append(sched, len(apps)-1)
	}
	return apps, sched
}

func analyzeBody(name string, sources, layouts map[string]string) ([]byte, error) {
	return json.Marshal(server.AnalyzeRequest{
		Name: name, Sources: sources, Layouts: layouts,
		ReportSpec: server.ReportSpec{Report: "sarif"},
	})
}

func outputHash(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

// loadResult is one request as the load generator saw it. Times are
// offsets from the batch's T0.
type loadResult struct {
	App    int           `json:"app"`
	Conn   int           `json:"conn"`
	Status int           `json:"status"`
	Err    string        `json:"err,omitempty"`
	Cached bool          `json:"cached"`
	Out    string        `json:"out"` // sha256 of the response's Output; "" when empty
	Due    time.Duration `json:"dueNs"`
	Sent   time.Duration `json:"sentNs"`
	Done   time.Duration `json:"doneNs"`
}

// loadBatch is one open-loop window: its start on the wall clock, which
// both processes share, and every request in schedule order.
type loadBatch struct {
	T0   int64        `json:"t0UnixNs"`
	Reqs []loadResult `json:"reqs"`
}

// openLoop sends requests first..first+n-1 of the schedule, request i due
// at T0 + i/rate, each on whichever connection is free. A request is timed
// from when it was due, so a stall also delays the requests behind it.
func openLoop(conns []*conn, bodies [][]byte, sched []int, first, n int) loadBatch {
	reqs := make([]loadResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / serveRate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				r := &reqs[i]
				r.App, r.Conn, r.Due = sched[first+i], c, due
				r.Sent = time.Since(start)
				var resp server.AnalyzeResponse
				status, err := conns[c].do("POST", "/v1/analyze", bodies[r.App], &resp)
				r.Done = time.Since(start)
				r.Status, r.Cached = status, resp.Cached
				if err != nil {
					r.Err = err.Error()
				}
				if resp.Output != "" {
					r.Out = outputHash(resp.Output)
				}
			}
		}(c)
	}
	wg.Wait()
	return loadBatch{T0: start.UnixNano(), Reqs: reqs}
}

// runLoadgen is the child process: it derives the schedule, says "ready",
// then runs one open-loop window per "run <first> <n>" line on stdin and
// answers each with one JSON line. It exits when stdin closes.
func runLoadgen(base string, seed int64, d time.Duration) error {
	// The generator mostly sleeps; one P keeps its threads from competing
	// with the server's for the machine's cores.
	runtime.GOMAXPROCS(1)
	apps, sched := serveSchedule(seed, d)
	bodies := make([][]byte, len(apps))
	for i, a := range apps {
		sources, layouts := a.inputs()
		body, err := analyzeBody(a.name, sources, layouts)
		if err != nil {
			return err
		}
		bodies[i] = body
	}
	var conns []*conn
	for i := 0; i < serveConns; i++ {
		conns = append(conns, newConn(base))
		defer conns[i].close()
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, "ready")
	if err := out.Flush(); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var first, n int
		if _, err := fmt.Sscanf(in.Text(), "run %d %d", &first, &n); err != nil {
			return fmt.Errorf("loadgen: bad command %q", in.Text())
		}
		if first < 0 || first+n > len(sched) {
			return fmt.Errorf("loadgen: requests %d..%d outside the %d planned", first, first+n, len(sched))
		}
		data, err := json.Marshal(openLoop(conns, bodies, sched, first, n))
		if err != nil {
			return err
		}
		out.Write(data)
		out.WriteByte('\n')
		if err := out.Flush(); err != nil {
			return err
		}
	}
	return in.Err()
}

// loadgen is the parent's handle on the child process.
type loadgen struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

func startLoadgen(base string, seed int64, d time.Duration) (*loadgen, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, "--loadgen", base, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(d.Seconds(), 'f', -1, 64))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the load generator: %w", err)
	}
	lg := &loadgen{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20)}
	if line, err := lg.out.ReadString('\n'); err != nil || line != "ready\n" {
		lg.stop()
		return nil, fmt.Errorf("load generator did not start (%q, %v)", line, err)
	}
	return lg, nil
}

func (lg *loadgen) run(first, n int) (loadBatch, error) {
	var b loadBatch
	if _, err := fmt.Fprintf(lg.stdin, "run %d %d\n", first, n); err != nil {
		return b, fmt.Errorf("commanding the load generator: %w", err)
	}
	line, err := lg.out.ReadBytes('\n')
	if err != nil {
		return b, fmt.Errorf("reading the load generator: %w", err)
	}
	if err := json.Unmarshal(line, &b); err != nil {
		return b, fmt.Errorf("decoding the load generator's results: %w", err)
	}
	if len(b.Reqs) != n {
		return b, fmt.Errorf("load generator sent %d results, want %d", len(b.Reqs), n)
	}
	return b, nil
}

// stop closes the child's stdin, which ends it, and waits for it; a child
// that does not exit within ten seconds is killed.
func (lg *loadgen) stop() {
	lg.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = lg.cmd.Wait() // the exit status adds nothing once the results are in
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = lg.cmd.Process.Kill()
		<-done
	}
}

type serveWorkload struct {
	g      *gatord
	lg     *loadgen
	conn   *conn // for warm-up and /metrics.json
	apps   []serveApp
	sched  []int
	cursor int // the first request not yet sent

	// outputs holds the hash of each app's first response; later responses
	// must match, and verify compares it with the library's SARIF.
	outputs  map[int]string
	verified map[int]bool

	// Traced-run accumulators.
	before, after metricsSnapshot
	late          []time.Duration
	hits, total   int
	rejects       int
	missed        []int // apps the server analyzed (first, uncached responses)
}

func (s *serveWorkload) setup(seed int64, d time.Duration) error {
	g, err := startGatord()
	if err != nil {
		return err
	}
	s.g = g
	s.conn = newConn(g.base)
	s.outputs, s.verified = map[int]string{}, map[int]bool{}
	s.apps, s.sched = serveSchedule(seed, d)
	// Warm-up on apps of their own, each sent twice so both the analysis
	// and the replay paths run before timing.
	warm := rand.New(rand.NewSource(^seed))
	for i := 0; i < serveWarmup; i++ {
		sources, layouts := corpus.RandomApp(warm.Int63())
		body, err := analyzeBody(fmt.Sprintf("warm%d", i), sources, layouts)
		if err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			var resp server.AnalyzeResponse
			if _, err := s.conn.do("POST", "/v1/analyze", body, &resp); err != nil {
				return fmt.Errorf("warm-up request: %w", err)
			}
		}
	}
	s.lg, err = startLoadgen(g.base, seed, d)
	return err
}

func (s *serveWorkload) close() {
	if s.lg != nil {
		s.lg.stop()
	}
	if s.conn != nil {
		s.conn.close()
	}
	if s.g != nil {
		s.g.stop()
	}
}

func (s *serveWorkload) run(d time.Duration, tr *recorder) (*phase, error) {
	first := s.cursor
	n := int(d.Seconds() * serveRate)
	if tr != nil {
		var err error
		if s.before, err = s.conn.scrape(); err != nil {
			return nil, err
		}
	}
	b, err := s.lg.run(first, n)
	if err != nil {
		return nil, err
	}
	s.cursor = first + n

	var busy time.Duration
	p := &phase{}
	for i, r := range b.Reqs {
		busy = max(busy, r.Done)
		p.attempted++
		switch {
		case r.Err != "":
			if rejected(r.Status) {
				s.rejects++
			}
			p.fail("request %d: %s", first+i, r.Err)
			continue
		case r.Out == "":
			p.fail("request %d: empty output", first+i)
			continue
		}
		if prev, ok := s.outputs[r.App]; !ok {
			s.outputs[r.App] = r.Out
		} else if prev != r.Out {
			p.fail("request %d: %s answered differently than before", first+i, s.apps[r.App].name)
			continue
		}
		p.lat = append(p.lat, r.Done-r.Due)
		p.verdicts++
		if tr != nil {
			if !r.Cached {
				s.missed = append(s.missed, r.App)
			}
			s.total++
			if r.Cached {
				s.hits++
			}
			s.late = append(s.late, r.Sent-r.Due)
			// Both processes read the same wall clock; shift the child's
			// offsets onto the recorder's timeline.
			shift := time.Duration(b.T0 - tr.origin.UnixNano())
			op, lane := first+i, r.Conn
			opID := tr.add(span{Name: "op", Op: op, Lane: lane, Start: shift + r.Due, End: shift + r.Done})
			tr.add(span{Name: "loadgen.wait", Parent: opID, Op: op, Lane: lane, Start: shift + r.Due, End: shift + r.Sent})
			tr.add(span{Name: "server.http", Parent: opID, Op: op, Lane: lane, Start: shift + r.Sent, End: shift + r.Done})
		}
	}
	p.busy = busy
	if tr != nil {
		if s.after, err = s.conn.scrape(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// verify compares every app answered since the last check with the
// library's SARIF for the same inputs, byte for byte (by SHA-256).
func (s *serveWorkload) verify(p *phase) {
	for app, out := range s.outputs {
		if s.verified[app] {
			continue
		}
		s.verified[app] = true
		a := s.apps[app]
		sources, layouts := a.inputs()
		lr, err := libraryRun(a.name, sources, layouts, gator.Options{})
		if err != nil {
			p.fail("%s: library analysis: %v", a.name, err)
			continue
		}
		if outputHash(string(lr.sarif)) != out {
			p.fail("%s: server SARIF differs from the library's", a.name)
		}
	}
}

// layers reports the server's stage deltas over the traced window, and the
// layers behind them from a library replay of the apps the server analyzed
// (the cache answered the rest), spread over all requests.
func (s *serveWorkload) layers(p *phase, tr *recorder) error {
	ops := len(p.lat)
	n := float64(ops)
	p.layers = map[string]float64{}
	var total time.Duration
	for _, l := range p.lat {
		total += l
	}
	stats := selfTimes(tr.snapshot())
	clientMs := ms(total) / n
	if st := stats["server.http"]; st != nil {
		clientMs = ms(st.Total) / n
	}
	if err := serverStages(p.layers, s.before, s.after, ops, clientMs); err != nil {
		return err
	}
	p.layers["server.rejected"] = float64(s.rejects)
	if s.total > 0 {
		p.layers["cache.result_hit_ratio"] = float64(s.hits) / float64(s.total)
	}
	if len(s.late) > 0 {
		p.layers["loadgen.late_ms_p99"] = ms(percentile(sortedCopy(s.late), 99))
	}

	// Library replay of the analyzed apps, with the program's own spans.
	var calls [4]time.Duration
	phases := map[string]time.Duration{}
	var totals eventTotals
	findings, sarifBytes, iterations := 0, 0, 0
	for _, app := range s.missed {
		a := s.apps[app]
		sink := &trace.Collect{}
		opts := gator.Options{Trace: trace.New(sink).Scope(a.name, 0)}
		sources, layouts := a.inputs()
		lr, err := libraryRun(a.name, sources, layouts, opts)
		if err != nil {
			return err
		}
		calls[0] += lr.load
		calls[1] += lr.analyze
		calls[2] += lr.check
		calls[3] += lr.render
		findings += lr.findings
		sarifBytes += len(lr.sarif)
		iterations += lr.res.Iterations()
		events := sink.Events()
		totals.add(events)
		prog, _ := phaseSpans(events, 0)
		for _, sp := range prog {
			phases[sp.Name] += sp.dur()
		}
	}
	for i, name := range []string{"gator.load", "gator.analyze", "gator.check", "gator.sarif"} {
		p.layers[name+"_ms"] = ms(calls[i]) / n
	}
	p.layers["analysis.sarif_ms"] = p.layers["gator.sarif_ms"]
	checksTotal := 0.0
	for name, d := range phases {
		p.layers[name+"_ms"] = ms(d) / n
		if strings.HasPrefix(name, "checks.") {
			checksTotal += ms(d) / n
		}
	}
	p.layers["checks.total_ms"] = checksTotal
	p.layers["core.iterations"] = float64(iterations) / n
	p.layers["checks.findings"] = float64(findings) / n
	p.layers["checks.dataflow_visits"] = float64(totals.dataflowVisits) / n
	p.layers["analysis.sarif_bytes"] = float64(sarifBytes) / n
	return addFrontEnd(p.layers, 1/n, func() (frontEnd, error) {
		var sum frontEnd
		for _, app := range s.missed {
			fe, err := probeFrontEnd(s.apps[app].inputs())
			if err != nil {
				return sum, err
			}
			sum = sum.plus(fe)
		}
		return sum, nil
	})
}
