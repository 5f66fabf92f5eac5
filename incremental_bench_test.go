package gator

import (
	"strings"
	"testing"

	"gator/internal/corpus"
)

// benchEditSize is the modular-app size (activities, one compilation unit
// each plus a shared unit) used by the incremental-edit benchmarks and by
// gatorbench's BENCH_4.json record. 30 activities yield 62 compilation
// units (sources + layouts); BenchmarkIncrementalLarge runs the same edit
// on a 502-unit app — the paged unit bitsets put no cap on how many units
// dependency tracking covers.
const benchEditSize = 30

// benchEditVariants returns the base input and two alternating body-only
// variants of one activity file, so every benchmark iteration performs a
// real edit (identical input would short-circuit as "unchanged").
func benchEditVariants() (sources, layouts map[string]string, a, b string) {
	sources, layouts = corpus.ModularApp(benchEditSize)
	base := sources["act1.alite"]
	a = strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = btn;\n", 1)
	b = strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = p;\n", 1)
	return sources, layouts, a, b
}

// BenchmarkIncrementalEdit measures re-analysis after a single-file body
// edit on the incremental path: shared parse cache, in-place re-lowering of
// the edited file, and warm re-solving from the retained fact base.
func BenchmarkIncrementalEdit(bm *testing.B) {
	sources, layouts, va, vb := benchEditVariants()
	c := NewCache()
	prev, err := AnalyzeIncremental(nil, sources, layouts, Options{}, c)
	if err != nil {
		bm.Fatal(err)
	}
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if i%2 == 0 {
			sources["act1.alite"] = va
		} else {
			sources["act1.alite"] = vb
		}
		res, err := AnalyzeIncremental(prev, sources, layouts, Options{}, c)
		if err != nil {
			bm.Fatal(err)
		}
		if mode := res.Incremental().Mode; mode != "warm" {
			bm.Fatalf("iteration %d: mode %q (reason %q), want warm", i, mode, res.Incremental().Reason)
		}
		prev = res
	}
}

// BenchmarkIncrementalLarge is BenchmarkIncrementalEdit at 250 activities
// (502 compilation units): the shape the former 64-unit dependency-tracking
// budget forced to scratch on every edit. gatorbench -records writes the
// warm-vs-cold ratio for this size into BENCH_6.json.
func BenchmarkIncrementalLarge(bm *testing.B) {
	sources, layouts := corpus.ModularApp(250)
	base := sources["act1.alite"]
	va := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = btn;\n", 1)
	vb := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = p;\n", 1)
	c := NewCache()
	prev, err := AnalyzeIncremental(nil, sources, layouts, Options{}, c)
	if err != nil {
		bm.Fatal(err)
	}
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if i%2 == 0 {
			sources["act1.alite"] = va
		} else {
			sources["act1.alite"] = vb
		}
		res, err := AnalyzeIncremental(prev, sources, layouts, Options{}, c)
		if err != nil {
			bm.Fatal(err)
		}
		if mode := res.Incremental().Mode; mode != "warm" {
			bm.Fatalf("iteration %d: mode %q (reason %q), want warm", i, mode, res.Incremental().Reason)
		}
		prev = res
	}
}

// BenchmarkScratchEdit is the baseline the incremental path is judged
// against: the same single-file edit handled the way a non-incremental
// pipeline must — re-load everything and solve from scratch.
func BenchmarkScratchEdit(bm *testing.B) {
	sources, layouts, va, vb := benchEditVariants()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if i%2 == 0 {
			sources["act1.alite"] = va
		} else {
			sources["act1.alite"] = vb
		}
		app, err := Load(sources, layouts)
		if err != nil {
			bm.Fatal(err)
		}
		app.Analyze(Options{})
	}
}
