package main

// The xbmc workload: one op is one verdict on corpus.PolymorphicHelperApp
// (Load → Analyze → CheckReport → SARIF), the paper's XBMC-shaped
// context-insensitivity stressor. The fixpoint does nearly all the work;
// the lexer and the checkers barely run. The generator is deterministic
// and takes no seed.

import (
	"bytes"
	"runtime"
	"strings"
	"time"

	"gator"
	"gator/internal/corpus"
	"gator/internal/trace"
)

// xbmcCallers is the number of activities sharing the helper.
const xbmcCallers = 200

// xbmcFactsByKind is the closed form of the solution: context-insensitively
// every one of the n callers, and every one of the n click listeners,
// receives all n buttons. Per kind of projected fact:
//   - pts: 4n² + 8n (the helper's and each caller's locals and fields, of
//     which the n² terms are the merged button sets);
//   - listener: n² (each button carries all n listeners);
//   - viewid: 3n, child: 2n, root: n, layoutof: n (one layout of three
//     views per activity).
func xbmcFactsByKind(n int) map[string]int {
	return map[string]int{
		"pts": 4*n*n + 8*n, "listener": n * n,
		"viewid": 3 * n, "child": 2 * n, "root": n, "layoutof": n,
	}
}

// xbmcFindings is the closed-form finding count: two per caller.
func xbmcFindings(n int) int { return 2 * n }

type xbmcWorkload struct {
	sources, layouts map[string]string
	ref              []byte // SARIF of the warm-up verdict
	last             *gator.Result

	iterations int
	sarifBytes int
	totals     eventTotals
}

func (x *xbmcWorkload) setup(int64, time.Duration) error {
	x.sources, x.layouts = corpus.PolymorphicHelperApp(xbmcCallers)
	_, out, err := x.op(nil, 0)
	if err != nil {
		return err
	}
	x.ref = out.sarif
	return nil
}

func (x *xbmcWorkload) close() {}

type xbmcOut struct {
	res      *gator.Result
	findings int
	sarif    []byte
}

// op runs one verdict; with tr set it records its spans under op id.
func (x *xbmcWorkload) op(tr *recorder, id int) (time.Duration, *xbmcOut, error) {
	var opts gator.Options
	sink := &trace.Collect{}
	now := func() time.Duration { return 0 }
	if tr != nil {
		opts.Trace = trace.New(sink, trace.WithClock(tr.clock())).Scope("xbmc", 0)
		now = tr.now
	}
	start := time.Now()
	t0 := now()
	app, err := gator.Load(x.sources, x.layouts)
	if err != nil {
		return 0, nil, err
	}
	t1 := now()
	res := app.Analyze(opts)
	t2 := now()
	cr, err := res.CheckReport()
	if err != nil {
		return 0, nil, err
	}
	t3 := now()
	data, err := cr.SARIF()
	if err != nil {
		return 0, nil, err
	}
	t4 := now()
	lat := time.Since(start)
	if tr != nil {
		opID := tr.add(span{Name: "op", Op: id, Start: t0, End: t4})
		var parents []span
		for _, s := range []span{
			{Name: "gator.load", Start: t0, End: t1},
			{Name: "gator.analyze", Start: t1, End: t2},
			{Name: "gator.check", Start: t2, End: t3},
			{Name: "gator.sarif", Start: t3, End: t4},
		} {
			s.Parent, s.Op = opID, id
			s.ID = tr.add(s)
			parents = append(parents, s)
		}
		events := sink.Events()
		x.totals.add(events)
		prog, _ := phaseSpans(events, 0)
		adopt(tr, prog, parents)
	}
	return lat, &xbmcOut{res: res, findings: len(cr.Findings), sarif: data}, nil
}

func (x *xbmcWorkload) run(d time.Duration, tr *recorder) (*phase, error) {
	p := &phase{}
	deadline := time.Now().Add(d)
	for id := 1; time.Now().Before(deadline); id++ {
		// Each verdict models one fresh invocation, which starts from an
		// empty heap: collect the previous verdict's garbage untimed.
		runtime.GC()
		lat, out, err := x.op(tr, id)
		p.attempted++
		if err != nil {
			p.fail("verdict %d: %v", id, err)
			continue
		}
		p.lat = append(p.lat, lat)
		p.busy += lat
		switch {
		case out.findings != xbmcFindings(xbmcCallers):
			p.fail("verdict %d: %d findings, closed form %d", id, out.findings, xbmcFindings(xbmcCallers))
		case !bytes.Equal(out.sarif, x.ref):
			p.fail("verdict %d: SARIF differs from the warm-up verdict's", id)
		default:
			p.verdicts++
		}
		if tr != nil {
			x.iterations += out.res.Iterations()
			x.sarifBytes += len(out.sarif)
		}
		x.last = out.res
	}
	return p, nil
}

// verify checks the last verdict's projected facts against the closed form.
func (x *xbmcWorkload) verify(p *phase) {
	got := map[string]int{}
	for _, f := range x.last.ProjectedFacts() {
		kind, _, _ := strings.Cut(f, " ")
		got[kind]++
	}
	want := xbmcFactsByKind(xbmcCallers)
	for kind, n := range want {
		if got[kind] != n {
			p.fail("projected %s facts: got %d, closed form %d", kind, got[kind], n)
		}
	}
	if len(got) != len(want) {
		p.fail("projected fact kinds: got %v, closed form %v", got, want)
	}
}

func (x *xbmcWorkload) layers(p *phase, tr *recorder) error {
	ops := float64(len(p.lat))
	p.layers = map[string]float64{}
	addSpanLayers(p.layers, selfTimes(tr.snapshot()), len(p.lat))
	if err := addFrontEnd(p.layers, 1, func() (frontEnd, error) {
		return probeFrontEnd(x.sources, x.layouts)
	}); err != nil {
		return err
	}
	facts := 0
	for _, n := range xbmcFactsByKind(xbmcCallers) {
		facts += n
	}
	p.layers["core.iterations"] = float64(x.iterations) / ops
	p.layers["core.facts"] = float64(facts)
	p.layers["checks.findings"] = float64(xbmcFindings(xbmcCallers))
	p.layers["checks.dataflow_visits"] = float64(x.totals.dataflowVisits) / ops
	p.layers["analysis.sarif_ms"] = p.layers["gator.sarif_ms"]
	p.layers["analysis.sarif_bytes"] = float64(x.sarifBytes) / ops
	return nil
}
