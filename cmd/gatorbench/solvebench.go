package main

// The solver benchmark record (BENCH_6.json): the solver hot-path campaign's
// recorded numbers. Part one solves a 501-unit chain-shaped application —
// one outer fixpoint iteration per findViewById chain stage, ~26 in all, so
// the delta operation worklist and the CSR propagation arrays actually pay
// off — under both engines: the
// reference schedule (Options.ReferenceSolver) and the default optimized
// engine. Part two measures incremental
// re-analysis (warm vs cold) on a 502-unit modular application, far past
// the former 64-unit dependency-tracking budget. Only the solve phase is
// timed for the engine comparison (extracted from trace phase events);
// parsing, IR construction, and graph building are identical across
// engines and would only dilute the ratio.

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gator"
	"gator/internal/benchrec"
	"gator/internal/corpus"
	"gator/internal/trace"
)

// solveBenchRuns is the per-configuration repetition count; the minimum is
// reported (minimum, not mean, to shed scheduler noise on shared runners).
const solveBenchRuns = 3

// solvePhaseMs extracts the "solve" phase duration from collected events.
func solvePhaseMs(events []trace.Event) (float64, error) {
	var begin time.Duration
	haveBegin := false
	for _, ev := range events {
		if ev.Name != "solve" {
			continue
		}
		switch ev.Kind {
		case trace.KindPhaseBegin:
			begin, haveBegin = ev.TS, true
		case trace.KindPhaseEnd:
			if haveBegin {
				return ms(ev.TS - begin), nil
			}
		}
	}
	return 0, fmt.Errorf("no solve phase in trace")
}

// timeSolve loads the app fresh and returns the solve-phase time and
// iteration count under opts, minimized over solveBenchRuns runs.
func timeSolve(sources, layouts map[string]string, opts gator.Options) (float64, int, error) {
	best := 0.0
	iters := 0
	for run := 0; run < solveBenchRuns; run++ {
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return 0, 0, err
		}
		sink := &trace.Collect{}
		opts.Trace = trace.New(sink).Scope("solvebench", 0)
		res := app.Analyze(opts)
		d, err := solvePhaseMs(sink.Events())
		if err != nil {
			return 0, 0, err
		}
		if run == 0 || d < best {
			best = d
		}
		iters = res.Iterations()
	}
	return best, iters, nil
}

// solveRecord gates both same-machine ratios by hard floors only: each
// divides two separately measured solve times, so its run-to-run noise is
// the sum of both sides' and routinely exceeds 15% on busy single-core
// runners without any code change.
func solveRecord(benchRun) (*benchrec.Record, error) {
	const nAct, depth = 250, 24
	sources, layouts := corpus.ModularChainApp(nAct, depth)
	refMs, iters, err := timeSolve(sources, layouts, gator.Options{ReferenceSolver: true})
	if err != nil {
		return nil, err
	}
	optMs, _, err := timeSolve(sources, layouts, gator.Options{})
	if err != nil {
		return nil, err
	}
	rec := &benchrec.Record{Context: map[string]string{
		"cores": strconv.Itoa(runtime.NumCPU()),
		"app":   fmt.Sprintf("modular-chain-%dx%d", nAct, depth),
		"units": strconv.Itoa(len(sources) + len(layouts)),
	}}
	rec.Add(
		benchrec.LowerIsBetter("iterations", "count", float64(iters)),
		benchrec.LowerIsBetter("refMs", "ms", refMs),
		benchrec.LowerIsBetter("optMs", "ms", optMs),
		// The campaign headline: reference schedule vs the CSR+delta
		// engine, same machine, same solution.
		benchrec.HigherIsBetter("optSpeedup", "x", refMs/optMs).WithLimit(2),
	)
	if err := solveBenchIncremental(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// solveBenchIncremental measures a single-file body edit on a 502-unit
// modular app: warm AnalyzeIncremental vs cold Load+Analyze. The former
// 64-unit budget forced exactly this shape to scratch; the paged bitsets
// make it warm.
func solveBenchIncremental(rec *benchrec.Record) error {
	const nActs = 250
	sources, layouts := corpus.ModularApp(nActs)
	rec.Context["incApp"] = fmt.Sprintf("modular-%d", nActs)
	rec.Context["incUnits"] = strconv.Itoa(len(sources) + len(layouts))

	base := sources["act1.alite"]
	va := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = btn;\n", 1)
	vb := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = p;\n", 1)
	if va == base || vb == base {
		return fmt.Errorf("edit variants did not apply to act1.alite")
	}
	edit := func(i int) {
		if i%2 == 0 {
			sources["act1.alite"] = va
		} else {
			sources["act1.alite"] = vb
		}
	}

	cold := 0.0
	for i := 0; i < solveBenchRuns; i++ {
		edit(i)
		start := time.Now()
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return err
		}
		app.Analyze(gator.Options{})
		if d := ms(time.Since(start)); i == 0 || d < cold {
			cold = d
		}
	}

	sources["act1.alite"] = base
	c := gator.NewCache()
	prev, err := gator.AnalyzeIncremental(nil, sources, layouts, gator.Options{}, c)
	if err != nil {
		return err
	}
	warm := 0.0
	for i := 0; i < solveBenchRuns; i++ {
		edit(i)
		start := time.Now()
		res, err := gator.AnalyzeIncremental(prev, sources, layouts, gator.Options{}, c)
		if err != nil {
			return err
		}
		d := ms(time.Since(start))
		if st := res.Incremental(); st.Mode != "warm" {
			return fmt.Errorf("edit %d fell back to %q (%s)", i, st.Mode, st.Reason)
		}
		if i == 0 || d < warm {
			warm = d
		}
		prev = res
	}

	rec.Add(
		benchrec.LowerIsBetter("incColdMs", "ms", cold),
		benchrec.LowerIsBetter("incWarmMs", "ms", warm),
		// The same 5x floor as the incremental record (BENCH_4.json).
		benchrec.HigherIsBetter("incSpeedup", "x", cold/warm).WithLimit(5),
	)
	return nil
}
