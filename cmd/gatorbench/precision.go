package main

import (
	"fmt"
	"strconv"

	"gator"
	"gator/internal/benchrec"
	"gator/internal/corpus"
)

// precisionRecord (BENCH_7.json) is the measured precision frontier: the
// full corpus under each context-sensitivity mode, every solution scored
// against the interpreter oracle, plus the polymorphic-helper stressor.
// A ratio is total static solution size over total oracle-observed facts
// (1.0 would be an exact analysis). The ratios count canonical facts, not
// time, so they reproduce exactly and take a bound far tighter than a
// timing would.
func precisionRecord(run benchRun) (*benchrec.Record, error) {
	var inputs []gator.BatchInput
	for _, app := range corpus.GenerateAll() {
		inputs = append(inputs, gator.BatchInput{
			Name:    app.Name,
			Sources: app.BatchSources(),
			Layouts: app.LayoutXML(),
		})
	}

	const stressN = 8
	rec := &benchrec.Record{Context: map[string]string{
		"seed":     strconv.FormatInt(run.seed, 10),
		"stressor": fmt.Sprintf("polyhelper-%d", stressN),
	}}
	modes := []gator.CtxMode{gator.CtxOff, gator.Ctx1CFA, gator.Ctx1Obj}
	for _, mode := range modes {
		batch := gator.AnalyzeBatch(inputs, gator.BatchOptions{
			Workers: run.jobs,
			Options: gator.Options{ContextSensitivity: mode},
		})
		var perApp []benchrec.Metric
		staticSum, observedSum, violations := 0, 0, 0
		for _, rep := range batch.Apps {
			if rep.Err != nil {
				return nil, fmt.Errorf("%s under %s: %v", rep.Name, mode, rep.Err)
			}
			er := rep.Result.Explore(run.seed)
			key := mode.String() + "/" + rep.Name + "/"
			perApp = append(perApp,
				benchrec.LowerIsBetter(key+"staticFacts", "count", float64(er.StaticFacts)),
				benchrec.HigherIsBetter(key+"observedFacts", "count", float64(er.ObservedFacts)),
				benchrec.LowerIsBetter(key+"ratio", "ratio", er.PrecisionRatio),
				benchrec.LowerIsBetter(key+"violations", "count", float64(len(er.Violations))),
			)
			violations += len(er.Violations)
			staticSum += er.StaticFacts
			observedSum += er.ObservedFacts
		}
		ratio := 0.0
		if observedSum > 0 {
			ratio = float64(staticSum) / float64(observedSum)
		}
		rec.Add(
			benchrec.LowerIsBetter(mode.String()+"/ratio", "ratio", ratio).WithSlack(0.05),
			// Any fact the oracle observes outside the solution is unsound.
			benchrec.LowerIsBetter(mode.String()+"/violations", "count", float64(violations)).WithLimit(0),
			benchrec.LowerIsBetter(mode.String()+"/analysisMs", "ms", ms(batch.Stats.TotalWork())),
		)
		rec.Add(perApp...)
	}

	// Stressor: the acceptance shape from DESIGN.md — every context-sensitive
	// mode must collapse the shared helper's merged solution, so each
	// removes at least one fact the insensitive solution holds.
	sources, layouts := corpus.PolymorphicHelperApp(stressN)
	facts := map[gator.CtxMode]int{}
	for _, mode := range modes {
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return nil, fmt.Errorf("stressor: %v", err)
		}
		res := app.Analyze(gator.Options{ContextSensitivity: mode})
		facts[mode] = len(res.ProjectedFacts())
		rec.Add(benchrec.LowerIsBetter("stressor/"+mode.String()+"/facts", "count", float64(facts[mode])))
	}
	for _, mode := range modes[1:] {
		removed := facts[gator.CtxOff] - facts[mode]
		rec.Add(benchrec.HigherIsBetter("stressor/"+mode.String()+"/factsRemoved", "count", float64(removed)).WithLimit(1))
	}
	return rec, nil
}
