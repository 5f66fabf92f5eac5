package main

import (
	"fmt"
	"strconv"

	"gator/internal/analysis"
	"gator/internal/benchrec"
	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/ir"
)

// lifecycleFindings analyzes one scenario app and counts its lifecycle-*
// findings by checker ID.
func lifecycleFindings(app *corpus.App) (map[string]int, error) {
	p, err := ir.Build(app.FreshFiles(), app.FreshLayouts())
	if err != nil {
		return nil, fmt.Errorf("%s: %v", app.Name, err)
	}
	res := core.Analyze(p, core.Options{})
	rep, err := analysis.Run(app.Name, res, analysis.Options{Checks: []string{"lifecycle-*"}})
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, f := range rep.Findings {
		counts[f.Check]++
	}
	return counts, nil
}

// lifecycleRecord (BENCH_10.json) runs the ordering-bug scenario pack —
// seeded-bug apps plus their clean twins — through the lifecycle checkers
// and records per-checker recall and clean-twin false positives. Every
// gate is an absolute bound on a deterministic count over generated apps.
func lifecycleRecord(benchRun) (*benchrec.Record, error) {
	type tally struct{ seeded, detected, clean int }
	specs := corpus.ScenarioPack(24)
	byChecker := map[string]*tally{}
	var order []string
	var scenarios []benchrec.Metric
	for _, spec := range specs {
		id := spec.Bug.CheckerID()
		agg := byChecker[id]
		if agg == nil {
			agg = &tally{}
			byChecker[id] = agg
			order = append(order, id)
		}
		buggy, err := lifecycleFindings(corpus.GenerateScenario(spec))
		if err != nil {
			return nil, err
		}
		clean, err := lifecycleFindings(corpus.GenerateScenario(spec.CleanTwin()))
		if err != nil {
			return nil, err
		}
		cleanTotal := 0
		for _, c := range clean {
			cleanTotal += c
		}
		detected := 0
		if buggy[id] > 0 {
			detected = 1
		}
		agg.seeded++
		agg.detected += detected
		agg.clean += cleanTotal
		scenarios = append(scenarios,
			benchrec.HigherIsBetter(spec.Name()+"/detected", "count", float64(detected)),
			benchrec.LowerIsBetter(spec.Name()+"/cleanFindings", "count", float64(cleanTotal)),
		)
	}
	rec := &benchrec.Record{Context: map[string]string{"scenarios": strconv.Itoa(len(specs))}}
	for _, id := range order {
		agg := byChecker[id]
		rec.Add(
			benchrec.HigherIsBetter(id+"/seeded", "count", float64(agg.seeded)).WithLimit(1),
			benchrec.HigherIsBetter(id+"/detected", "count", float64(agg.detected)),
			benchrec.HigherIsBetter(id+"/recall", "ratio", float64(agg.detected)/float64(agg.seeded)).WithLimit(0.9),
			// A clean twin has the bug's shape with a legal ordering, so any
			// finding on one is a false positive by construction.
			benchrec.LowerIsBetter(id+"/cleanFindings", "count", float64(agg.clean)).WithLimit(0),
		)
	}
	rec.Add(scenarios...)
	return rec, nil
}
