package main

// Standalone front-end probes and program-trace readers shared by the
// workloads' traced runs.

import (
	"fmt"
	"sort"
	"time"

	"gator"
	"gator/internal/alite"
	"gator/internal/ir"
	"gator/internal/layout"
	"gator/internal/trace"
)

// probeRepeats is how many times a traced run repeats the standalone
// front-end probes; each probe metric is the median.
const probeRepeats = 3

// frontEnd is one pass of the standalone front-end probes over a set of
// sources: the lexer, the parser, layout parsing, shape signatures and the
// IR build, each timed on its own.
type frontEnd struct {
	lex, parse, layout, shape, build time.Duration
	tokens, bytes                    int
}

func (a frontEnd) plus(b frontEnd) frontEnd {
	return frontEnd{
		lex: a.lex + b.lex, parse: a.parse + b.parse, layout: a.layout + b.layout,
		shape: a.shape + b.shape, build: a.build + b.build,
		tokens: a.tokens + b.tokens, bytes: a.bytes + b.bytes,
	}
}

// probeFrontEnd runs alite.Tokenize, alite.Parse, ir.ShapeSignature,
// layout.Parse and, when there are layouts, ir.Build over the inputs.
func probeFrontEnd(sources, layouts map[string]string) (frontEnd, error) {
	var fe frontEnd
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	start := time.Now()
	for _, n := range names {
		toks, err := alite.Tokenize(n, sources[n])
		if err != nil {
			return fe, err
		}
		fe.tokens += len(toks)
		fe.bytes += len(sources[n])
	}
	fe.lex = time.Since(start)

	files := make([]*alite.File, 0, len(names))
	start = time.Now()
	for _, n := range names {
		f, err := alite.Parse(n, sources[n])
		if err != nil {
			return fe, err
		}
		files = append(files, f)
	}
	fe.parse = time.Since(start)

	start = time.Now()
	for _, f := range files {
		_ = ir.ShapeSignature(f)
	}
	fe.shape = time.Since(start)

	start = time.Now()
	parsed := make(map[string]*layout.Layout, len(layouts))
	for n, x := range layouts {
		l, err := layout.Parse(n, x)
		if err != nil {
			return fe, err
		}
		parsed[n] = l
	}
	fe.layout = time.Since(start)

	if layouts != nil {
		start = time.Now()
		if _, err := ir.Build(files, parsed); err != nil {
			return fe, err
		}
		fe.build = time.Since(start)
	}
	return fe, nil
}

// addFrontEnd stores the median of probeRepeats probe passes, scaled by
// scale (probe passes per op), into the layer metrics.
func addFrontEnd(layers map[string]float64, scale float64, probe func() (frontEnd, error)) error {
	var lex, parse, lay, shape, build []float64
	var last frontEnd
	for i := 0; i < probeRepeats; i++ {
		fe, err := probe()
		if err != nil {
			return fmt.Errorf("front-end probe: %w", err)
		}
		lex = append(lex, ms(fe.lex))
		parse = append(parse, ms(fe.parse))
		lay = append(lay, ms(fe.layout))
		shape = append(shape, ms(fe.shape))
		build = append(build, ms(fe.build))
		last = fe
	}
	layers["alite.lex_ms"] = medianFloat(lex) * scale
	layers["alite.parse_ms"] = medianFloat(parse) * scale
	layers["layout.parse_ms"] = medianFloat(lay) * scale
	layers["ir.shape_ms"] = medianFloat(shape) * scale
	layers["ir.build_ms"] = medianFloat(build) * scale
	layers["alite.tokens"] = float64(last.tokens) * scale
	if l := medianFloat(lex); l > 0 {
		layers["alite.lex_mb_per_s"] = float64(last.bytes) / mib / (l / 1000)
	}
	return nil
}

// eventTotals sums what a program trace reports besides phase spans:
// dataflow block visits, fixpoint iterations and parse-cache probes.
type eventTotals struct {
	dataflowVisits int64
	iterations     int64
	parseHits      int64
	parseProbes    int64
}

func (t *eventTotals) add(events []trace.Event) {
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindDataflow:
			t.dataflowVisits += ev.N
		case trace.KindIteration:
			t.iterations++
		case trace.KindCache:
			if ev.Name == "parse" {
				t.parseProbes++
				t.parseHits += ev.N
			}
		}
	}
}

// addSpanLayers stores per-op inclusive times of the spans a workload
// records: the gator.* calls, core phases and every checker pass.
func addSpanLayers(layers map[string]float64, stats map[string]*layerStat, ops int) {
	per := func(name string) float64 {
		if st := stats[name]; st != nil {
			return ms(st.Total) / float64(ops)
		}
		return 0
	}
	for _, n := range []string{"gator.load", "gator.analyze", "gator.check", "gator.sarif",
		"core.build", "core.solve", "core.retract", "core.rebuild"} {
		layers[n+"_ms"] = per(n)
	}
	total := 0.0
	for _, id := range checkIDs {
		v := per("checks." + id)
		layers["checks."+id+"_ms"] = v
		total += v
	}
	layers["checks.total_ms"] = total
}

// libRun is one from-scratch verdict through the public API, with the time
// of each call.
type libRun struct {
	res                          *gator.Result
	sarif                        []byte
	findings                     int
	load, analyze, check, render time.Duration
}

// libraryRun analyzes inputs from scratch: Load → Analyze → CheckReport →
// SARIF, under the given app name.
func libraryRun(name string, sources, layouts map[string]string, opts gator.Options) (*libRun, error) {
	var lr libRun
	t0 := time.Now()
	app, err := gator.Load(sources, layouts)
	if err != nil {
		return nil, err
	}
	app.Name = name
	t1 := time.Now()
	lr.res = app.Analyze(opts)
	t2 := time.Now()
	cr, err := lr.res.CheckReport()
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	if lr.sarif, err = cr.SARIF(); err != nil {
		return nil, err
	}
	lr.render = time.Since(t3)
	lr.load, lr.analyze, lr.check = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	lr.findings = len(cr.Findings)
	return &lr, nil
}
