package main

// The corpus workload: one op is one CI-scan pass over the 20 Table-1 apps.
// AnalyzeBatch runs with 2 workers and a fresh shared cache (one cache per
// pass, as one cmd/gator invocation has), then CheckReport and SARIF run
// for every app. The generator is deterministic and takes no seed.

import (
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gator"
	"gator/internal/corpus"
	"gator/internal/trace"
)

const (
	corpusWorkers = 2
	// exploreSeed seeds the concrete interpreter that checks soundness.
	exploreSeed = 1
	// corpusExpectedFile holds the expected findings of every corpus app,
	// relative to the benchmark's directory.
	corpusExpectedFile = "testdata/corpus_findings.txt"
)

//go:embed testdata/corpus_findings.txt
var corpusExpected string

type corpusWorkload struct {
	inputs   []gator.BatchInput
	expected map[string]string // app name → rendered findings
	last     *gator.BatchResult

	// Traced-run accumulators.
	totals     eventTotals
	iterations int
	findings   int
	sarifBytes int
	parseHits  int64
	parseAll   int64
}

func corpusInputs() []gator.BatchInput {
	apps := corpus.GenerateAll()
	inputs := make([]gator.BatchInput, len(apps))
	for i, a := range apps {
		inputs[i] = gator.BatchInput{Name: a.Name, Sources: a.BatchSources(), Layouts: a.LayoutXML()}
	}
	return inputs
}

func (c *corpusWorkload) setup(int64, time.Duration) error {
	c.inputs = corpusInputs()
	c.expected = splitExpected(corpusExpected)
	c.op(nil, 0) // warm-up: one full pass
	return nil
}

func (c *corpusWorkload) close() {}

// renderFindings is the expected-file form of one app's findings.
func renderFindings(name string, cr *gator.CheckReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	for _, f := range cr.Findings {
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", f.Check, f.Severity, f.Pos, f.Msg)
	}
	return b.String()
}

// splitExpected indexes the expected file by app name.
func splitExpected(data string) map[string]string {
	out := map[string]string{}
	var name string
	var b strings.Builder
	flush := func() {
		if name != "" {
			out[name] = b.String()
		}
		b.Reset()
	}
	for _, line := range strings.SplitAfter(data, "\n") {
		if n, ok := strings.CutPrefix(line, "== "); ok {
			flush()
			name = strings.TrimSuffix(n, "\n")
		}
		b.WriteString(line)
	}
	flush()
	return out
}

// corpusOut is one pass's verdicts.
type corpusOut struct {
	batch   *gator.BatchResult
	reports []*gator.CheckReport
	sarif   [][]byte
	errs    []error
}

// op runs one pass. With tr set it records the pass's spans under op id.
func (c *corpusWorkload) op(tr *recorder, id int) (time.Duration, *corpusOut) {
	n := len(c.inputs)
	cache := gator.NewCache()
	opts := gator.BatchOptions{Workers: corpusWorkers, Cache: cache}
	sink := &trace.Collect{}
	done := make([]time.Duration, n) // when each app's analysis finished
	worker := make([]int, n)
	now := func() time.Duration { return 0 }
	if tr != nil {
		now = tr.now
		opts.Tracer = trace.New(sink, trace.WithClock(tr.clock()))
		opts.Progress = func(ev gator.ProgressEvent) {
			done[ev.Index] = tr.now()
			worker[ev.Index] = ev.Worker
		}
	}
	out := &corpusOut{reports: make([]*gator.CheckReport, n), sarif: make([][]byte, n), errs: make([]error, n)}
	var calls []span // per app: gator.check and gator.sarif, Op holding the app index
	start := time.Now()
	t0 := now()
	out.batch = gator.AnalyzeBatch(c.inputs, opts)
	tb := now()
	for i, rep := range out.batch.Apps {
		if rep.Err != nil {
			out.errs[i] = rep.Err
			continue
		}
		a := now()
		cr, err := rep.Result.CheckReport()
		if err != nil {
			out.errs[i] = err
			continue
		}
		b := now()
		data, err := cr.SARIF()
		if err != nil {
			out.errs[i] = err
			continue
		}
		calls = append(calls,
			span{Name: "gator.check", Start: a, End: b, Op: i},
			span{Name: "gator.sarif", Start: b, End: now(), Op: i})
		out.reports[i], out.sarif[i] = cr, data
	}
	lat := time.Since(start)
	if tr != nil {
		c.recordSpans(tr, id, t0, tb, now(), calls, sink.Events(), done, worker)
		hits, misses := cache.ParseStats()
		c.parseHits += hits
		c.parseAll += hits + misses
	}
	return lat, out
}

// recordSpans turns one traced pass into spans: the op; the batch call and,
// per app on its worker's lane, the batch's load span and an analyze span
// from the load's end to the app's completion; per app the check and SARIF
// calls; and the program's core and checker phases inside those.
func (c *corpusWorkload) recordSpans(tr *recorder, id int, t0, tb, t1 time.Duration,
	calls []span, events []trace.Event, done []time.Duration, worker []int) {
	opID := tr.add(span{Name: "op", Op: id, Start: t0, End: t1})
	batchID := tr.add(span{Name: "gator.batch", Parent: opID, Op: id, Start: t0, End: tb})
	c.totals.add(events)
	index := map[string]int{}
	for i, in := range c.inputs {
		index[in.Name] = i
	}
	parents := map[string][]span{} // per app, the spans program phases nest in
	orphans := map[string][]span{} // per app, program phases to place
	prog, apps := phaseSpans(events, 0)
	for i, s := range prog {
		app, k := apps[i], index[apps[i]]
		if s.Name != "gator.load" {
			orphans[app] = append(orphans[app], s)
			continue
		}
		s.Parent, s.Op, s.Lane = batchID, id, worker[k]+1
		tr.add(s)
		an := span{Name: "gator.analyze", Parent: batchID, Op: id, Lane: worker[k] + 1, Start: s.End, End: done[k]}
		an.ID = tr.add(an)
		parents[app] = append(parents[app], an)
	}
	for _, s := range calls {
		app := c.inputs[s.Op].Name
		s.Parent, s.Op = opID, id
		s.ID = tr.add(s)
		parents[app] = append(parents[app], s)
	}
	for app, o := range orphans {
		adopt(tr, o, parents[app])
	}
}

func (c *corpusWorkload) run(d time.Duration, tr *recorder) (*phase, error) {
	p := &phase{}
	deadline := time.Now().Add(d)
	for id := 1; time.Now().Before(deadline); id++ {
		// Each pass models one CI invocation, which starts from an empty
		// heap: collect the previous pass's garbage outside the timing.
		runtime.GC()
		lat, out := c.op(tr, id)
		p.lat = append(p.lat, lat)
		p.busy += lat
		p.attempted += len(c.inputs)
		for i, in := range c.inputs {
			switch {
			case out.errs[i] != nil:
				p.fail("%s: %v", in.Name, out.errs[i])
			case renderFindings(in.Name, out.reports[i]) != c.expected[in.Name]:
				p.fail("%s: findings differ from %s", in.Name, corpusExpectedFile)
			case len(out.sarif[i]) == 0:
				p.fail("%s: empty SARIF", in.Name)
			default:
				p.verdicts++
			}
		}
		if tr != nil {
			for i, rep := range out.batch.Apps {
				if rep.Err == nil && out.reports[i] != nil {
					c.iterations += rep.Result.Iterations()
					c.findings += len(out.reports[i].Findings)
					c.sarifBytes += len(out.sarif[i])
				}
			}
		}
		c.last = out.batch
	}
	return p, nil
}

// verify runs the concrete-interpreter oracle over the last pass's
// solutions: every observed fact must be in the static solution.
func (c *corpusWorkload) verify(p *phase) {
	for _, rep := range c.last.Apps {
		if rep.Err != nil {
			continue // already counted
		}
		if ex := rep.Result.Explore(exploreSeed); !ex.Sound {
			p.fail("%s: oracle found %d soundness violations", rep.Name, len(ex.Violations))
		}
	}
}

func (c *corpusWorkload) layers(p *phase, tr *recorder) error {
	ops := len(p.lat)
	p.layers = map[string]float64{}
	addSpanLayers(p.layers, selfTimes(tr.snapshot()), ops)
	err := addFrontEnd(p.layers, 1, func() (frontEnd, error) {
		var sum frontEnd
		for _, in := range c.inputs {
			fe, err := probeFrontEnd(in.Sources, in.Layouts)
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
	facts := 0
	for _, rep := range c.last.Apps {
		if rep.Err == nil {
			facts += len(rep.Result.ProjectedFacts())
		}
	}
	n := float64(ops)
	p.layers["core.iterations"] = float64(c.iterations) / n
	p.layers["core.facts"] = float64(facts)
	p.layers["checks.findings"] = float64(c.findings) / n
	p.layers["checks.dataflow_visits"] = float64(c.totals.dataflowVisits) / n
	p.layers["analysis.sarif_ms"] = p.layers["gator.sarif_ms"]
	p.layers["analysis.sarif_bytes"] = float64(c.sarifBytes) / n
	if c.parseAll > 0 {
		p.layers["cache.parse_hit_ratio"] = float64(c.parseHits) / float64(c.parseAll)
	}
	return nil
}

// writeCorpusExpected regenerates the expected findings file, under the
// benchmark directory dir, from the current analysis.
func writeCorpusExpected(dir string) error {
	inputs := corpusInputs()
	batch := gator.AnalyzeBatch(inputs, gator.BatchOptions{Workers: corpusWorkers, Cache: gator.NewCache()})
	var b strings.Builder
	for _, rep := range batch.Apps {
		if rep.Err != nil {
			return fmt.Errorf("%s: %w", rep.Name, rep.Err)
		}
		cr, err := rep.Result.CheckReport()
		if err != nil {
			return err
		}
		b.WriteString(renderFindings(rep.Name, cr))
	}
	path := filepath.Join(dir, corpusExpectedFile)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
