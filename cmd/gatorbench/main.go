// Command gatorbench regenerates the paper's evaluation (Section 5) over
// the 20-application corpus: Table 1 (application features and constraint
// graph nodes), Table 2 (analysis cost and precision averages), and the
// case-study comparison against the concrete-interpreter oracle. The corpus
// is analyzed as one parallel batch (-j workers); per-app results are
// reported in corpus order regardless of completion order.
//
// Usage:
//
//	gatorbench [-table 1|2|precision|all] [-app NAME] [-seed N] [-j N] [-stats]
//	           [-filter-casts] [-shared-inflation] [-no-findview3] [-declared-dispatch]
//	           [-ctx off|1cfa|1obj] [-trace FILE] [-metrics FILE] [-pprof ADDR]
//	           [-records DIR]
//
// -records DIR also measures every benchmark record (see records) and
// writes each into DIR under its BENCH_*.json name; `-records .`
// re-baselines the checked-in records, and scripts/benchdiff.sh diffs a
// fresh set against them.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves the standard profiling endpoints
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gator"
	"gator/internal/benchrec"
	"gator/internal/corpus"
	"gator/internal/metrics"
	"gator/internal/trace"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, precision, or all")
	appFilter := flag.String("app", "", "restrict to one application")
	seed := flag.Int64("seed", 1, "interpreter seed for the precision case study")
	filterCasts := flag.Bool("filter-casts", false, "ablation: cast-based filtering")
	sharedInfl := flag.Bool("shared-inflation", false, "ablation: shared inflation nodes per layout")
	noFV3 := flag.Bool("no-findview3", false, "ablation: disable child-only FindView3 refinement")
	declared := flag.Bool("declared-dispatch", false, "ablation: declared-type-only dispatch")
	ctxMode := flag.String("ctx", "off", "context sensitivity: off, 1cfa (call-site cloning), or 1obj (receiver-object cloning)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel analysis workers")
	stats := flag.Bool("stats", false, "print per-stage batch statistics to stderr")
	recordsDir := flag.String("records", "", "measure every benchmark record and write each into `dir` under its BENCH_*.json name")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the corpus run to `file`")
	metricsOut := flag.String("metrics", "", "write the aggregated counter/histogram registry as JSON to `file` (\"-\" for stderr; implies tracing)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on `addr` (e.g. localhost:6060) for the duration of the run")
	flag.Parse()

	if *pprofAddr != "" {
		// The imports register /debug/pprof/* and /debug/vars on the default
		// mux; the trace registry is published under "gator" below.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "gatorbench: pprof:", err)
			}
		}()
	}

	ctx, ok := gator.ParseCtxMode(*ctxMode)
	if !ok {
		fmt.Fprintf(os.Stderr, "gatorbench: -ctx %q: want off, 1cfa, or 1obj\n", *ctxMode)
		os.Exit(2)
	}

	opts := gator.Options{
		FilterCasts:           *filterCasts,
		SharedInflation:       *sharedInfl,
		NoFindView3Refinement: *noFV3,
		DeclaredDispatchOnly:  *declared,
		ContextSensitivity:    ctx,
	}

	var inputs []gator.BatchInput
	for _, app := range corpus.GenerateAll() {
		if *appFilter != "" && app.Name != *appFilter {
			continue
		}
		inputs = append(inputs, gator.BatchInput{
			Name:    app.Name,
			Sources: app.BatchSources(),
			Layouts: app.LayoutXML(),
		})
	}

	bopts := gator.BatchOptions{Workers: *jobs, Options: opts}
	var sink *trace.Collect
	var reg *metrics.Registry
	if *traceOut != "" || *metricsOut != "" || *pprofAddr != "" {
		sink = &trace.Collect{}
		reg = metrics.NewRegistry()
		bopts.Tracer = trace.New(sink, trace.WithRegistry(reg))
		// Live aggregates for /debug/vars while the batch runs.
		expvar.Publish("gator", expvar.Func(func() any { return reg.Snapshot() }))
	}

	batch := gator.AnalyzeBatch(inputs, bopts)
	if *stats {
		fmt.Fprint(os.Stderr, metrics.FormatBatch(batch.Stats))
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, sink.Events()); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		data, err := reg.JSON()
		if err == nil {
			if *metricsOut == "-" {
				_, err = os.Stderr.Write(data)
			} else {
				err = os.WriteFile(*metricsOut, data, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}

	var rows1 []metrics.Table1Row
	var rows2 []metrics.Table2Row
	var rowsP []metrics.PrecisionRow
	violations := 0
	for _, rep := range batch.Apps {
		if rep.Err != nil {
			fmt.Fprintf(os.Stderr, "gatorbench: %s: %v\n", rep.Name, rep.Err)
			os.Exit(1)
		}
		res := rep.Result
		rows1 = append(rows1, res.Table1())
		rows2 = append(rows2, res.Table2())

		if *table == "precision" || *table == "all" {
			er := res.Explore(*seed)
			rowsP = append(rowsP, metrics.PrecisionRow{
				App:           rep.Name,
				ObservedSites: er.ObservedSites,
				PerfectSites:  er.PerfectSites,
				Violations:    len(er.Violations),
				Steps:         er.Steps,
				Ratio:         er.PrecisionRatio,
			})
			violations += len(er.Violations)
			for _, v := range er.Violations {
				fmt.Fprintf(os.Stderr, "gatorbench: %s: SOUNDNESS VIOLATION: %s\n", rep.Name, v)
			}
		}
	}

	switch *table {
	case "1":
		fmt.Println("Table 1: analyzed applications and relevant constraint graph nodes")
		fmt.Print(metrics.FormatTable1(rows1))
	case "2":
		fmt.Println("Table 2: analysis running time and average solution sizes")
		fmt.Print(metrics.FormatTable2(rows2))
		printReceiverComparison(rows2)
	case "precision":
		fmt.Println("Case study: static solution vs. interpreter oracle")
		fmt.Print(metrics.FormatPrecision(rowsP))
	case "all":
		fmt.Println("Table 1: analyzed applications and relevant constraint graph nodes")
		fmt.Print(metrics.FormatTable1(rows1))
		fmt.Println()
		fmt.Println("Table 2: analysis running time and average solution sizes")
		fmt.Print(metrics.FormatTable2(rows2))
		printReceiverComparison(rows2)
		fmt.Println()
		fmt.Println("Case study: static solution vs. interpreter oracle")
		fmt.Print(metrics.FormatPrecision(rowsP))
	default:
		fmt.Fprintf(os.Stderr, "gatorbench: unknown table %q\n", *table)
		os.Exit(2)
	}

	if *recordsDir != "" {
		if err := writeRecords(*recordsDir, benchRun{batch: batch, jobs: *jobs, seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "gatorbench: %d soundness violation(s) against the oracle\n", violations)
		os.Exit(1)
	}
}

// benchRun is what a record's measurement may draw on: the corpus batch
// the tables were rendered from, and the run's flags.
type benchRun struct {
	batch *gator.BatchResult
	jobs  int
	seed  int64
}

// records is the one list of benchmark records. -records writes each
// under its file name; scripts/benchdiff.sh diffs them against the
// checked-in baselines of the same names. Each measure function declares
// its metrics' gates where it measures them (see internal/benchrec). The
// records share one process, so the order is part of the measurement
// conditions: it is the order the checked-in baselines were measured in.
var records = []struct {
	file    string
	measure func(benchRun) (*benchrec.Record, error)
}{
	{"BENCH_2.json", corpusRecord},
	{"BENCH_4.json", incrementalRecord},
	{"BENCH_6.json", solveRecord},
	{"BENCH_5.json", serveRecord},
	{"BENCH_8.json", obsRecord},
	{"BENCH_9.json", clusterRecord},
	{"BENCH_7.json", precisionRecord},
	{"BENCH_10.json", lifecycleRecord},
}

func writeRecords(dir string, run benchRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range records {
		rec, err := r.measure(run)
		if err != nil {
			return fmt.Errorf("%s: %w", r.file, err)
		}
		if err := benchrec.Write(filepath.Join(dir, r.file), rec); err != nil {
			return err
		}
		// Only the corpus record, first in the list, reads the batch.
		// Releasing it takes twenty apps' analysis results off the live
		// heap, which would otherwise space out GC cycles and skew the
		// allocation-heavy timings of every later record.
		run.batch = nil
	}
	return nil
}

// corpusRecord (BENCH_2.json) is the corpus-wide per-app analysis and
// diagnostics cost of the batch the tables came from.
func corpusRecord(run benchRun) (*benchrec.Record, error) {
	stats := run.batch.Stats
	rec := &benchrec.Record{Context: map[string]string{"workers": strconv.Itoa(run.jobs)}}
	rec.Add(
		benchrec.LowerIsBetter("batchWallMs", "ms", ms(stats.Wall)),
		benchrec.LowerIsBetter("totalWorkMs", "ms", ms(stats.TotalWork())).WithSlack(0.15),
		benchrec.HigherIsBetter("speedup", "x", stats.Speedup()),
	)
	for _, rep := range run.batch.Apps {
		if rep.Err != nil {
			continue
		}
		start := time.Now()
		cr, err := rep.Result.CheckReport()
		if err != nil {
			return nil, err
		}
		// Findings and warnings are behaviour, not cost: any drift fails.
		rec.Add(
			benchrec.LowerIsBetter(rep.Name+"/analysisMs", "ms", ms(rep.Result.Elapsed())),
			benchrec.LowerIsBetter(rep.Name+"/iterations", "count", float64(rep.Result.Iterations())),
			benchrec.LowerIsBetter(rep.Name+"/checksMs", "ms", ms(time.Since(start))),
			benchrec.MustEqual(rep.Name+"/findings", "count", float64(len(cr.Findings))),
			benchrec.MustEqual(rep.Name+"/warnings", "count", float64(cr.Warnings())),
		)
	}
	return rec, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// incrementalRecord (BENCH_4.json) measures the cost of re-analyzing
// after a single-file body edit, warm (AnalyzeIncremental resuming the
// retained fact base) vs cold (Load + Analyze from scratch), on a
// mid-sized modular app: the same alternating body-only edit the
// BenchmarkIncrementalEdit/BenchmarkScratchEdit pair in
// incremental_bench_test.go runs, timed over a fixed number of edits with
// the minimum per-edit time reported (minimum, not mean, to shed
// scheduler noise on shared CI runners). The speedup is a same-machine
// ratio, so it is stable across runner hardware in a way absolute
// milliseconds are not.
func incrementalRecord(benchRun) (*benchrec.Record, error) {
	const nActs = 30 // keep in sync with benchEditSize (incremental_bench_test.go)
	const edits = 10
	sources, layouts := corpus.ModularApp(nActs)
	base := sources["act1.alite"]
	va := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = btn;\n", 1)
	vb := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = p;\n", 1)
	if va == base || vb == base {
		return nil, fmt.Errorf("edit variants did not apply to act1.alite")
	}
	edit := func(i int) {
		if i%2 == 0 {
			sources["act1.alite"] = va
		} else {
			sources["act1.alite"] = vb
		}
	}

	// Cold baseline: each edit handled the way a non-incremental pipeline
	// must — re-load everything and solve from scratch.
	cold := time.Duration(1<<63 - 1)
	for i := 0; i < edits; i++ {
		edit(i)
		start := time.Now()
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return nil, err
		}
		app.Analyze(gator.Options{})
		if d := time.Since(start); d < cold {
			cold = d
		}
	}

	// Warm path: chained AnalyzeIncremental with a shared parse cache.
	sources["act1.alite"] = base
	c := gator.NewCache()
	prev, err := gator.AnalyzeIncremental(nil, sources, layouts, gator.Options{}, c)
	if err != nil {
		return nil, err
	}
	warm := time.Duration(1<<63 - 1)
	var last gator.IncrementalStats
	for i := 0; i < edits; i++ {
		edit(i)
		start := time.Now()
		res, err := gator.AnalyzeIncremental(prev, sources, layouts, gator.Options{}, c)
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		last = res.Incremental()
		if last.Mode != "warm" {
			return nil, fmt.Errorf("edit %d fell back to %q (%s)", i, last.Mode, last.Reason)
		}
		if d < warm {
			warm = d
		}
		prev = res
	}

	rec := &benchrec.Record{Context: map[string]string{
		"app":   fmt.Sprintf("modular-%d", nActs),
		"units": strconv.Itoa(len(sources) + len(layouts)),
		"edits": strconv.Itoa(edits),
	}}
	rec.Add(
		benchrec.LowerIsBetter("coldMs", "ms", ms(cold)),
		benchrec.LowerIsBetter("warmMs", "ms", ms(warm)),
		// The 5x floor is what the incremental re-solver is built to clear
		// (DESIGN.md, "Incremental solving").
		benchrec.HigherIsBetter("speedup", "x", float64(cold)/float64(warm)).WithSlack(0.15).WithLimit(5),
		benchrec.HigherIsBetter("retained", "count", float64(last.Retained)),
		benchrec.LowerIsBetter("retracted", "count", float64(last.Retracted)),
	)
	return rec, nil
}

// writeTrace writes the collected events in Chrome trace_event format.
func writeTrace(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReceiverComparison puts the measured receivers average next to the
// paper's Table 2 value for the same application.
func printReceiverComparison(rows []metrics.Table2Row) {
	fmt.Println()
	fmt.Println("Receivers average: paper vs. this reproduction")
	fmt.Printf("%-16s %8s %9s\n", "App", "paper", "measured")
	for _, r := range rows {
		spec, ok := corpus.SpecByName(r.App)
		if !ok {
			continue
		}
		fmt.Printf("%-16s %8.2f %9.2f\n", r.App, spec.TargetReceivers, r.AvgReceivers)
	}
}
