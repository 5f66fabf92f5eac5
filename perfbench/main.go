// Command perfbench is the repository's benchmark: four workloads over the
// public gator API and the gatord HTTP server, end-to-end metrics with
// tracing off, and a traced run that splits op time across the modules.
// See README.md for how to run it and read its output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gator/internal/checks"
	"gator/internal/trace"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 7

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark shape. A fresh value serves each set-up.
type workload interface {
	// setup generates the inputs for runs totalling d, starts any server
	// and warms up.
	setup(seed int64, d time.Duration) error
	// run measures ops for d. tr is nil when tracing is off; otherwise the
	// workload records its spans there.
	run(d time.Duration, tr *recorder) (*phase, error)
	// verify checks the outputs of the last run, outside the timed region,
	// counting each mismatch as a failed op.
	verify(p *phase)
	// layers adds the per-layer metrics of a traced run to p.layers.
	layers(p *phase, tr *recorder) error
	// close stops whatever setup started.
	close()
}

// spec is one workload's constructor and the percentile its
// latency_tail_ms reports. The percentile is fixed per workload, so that
// the metric means the same thing from run to run and from commit to
// commit. It is the highest ladder percentile for which a 20-second run
// fills at least three windows (see windowTail); corpus, with about 25
// passes, fills only one, at p50. serve-mixed is the exception, at p75: on
// a shared 2-core VM some of its runs are slow from start to end, and in
// those the upper fifth of its latencies grows by a third to two thirds,
// so that over ten runs p90 and p95 spread by 0.18 and 0.46 of their
// median, more than the metric's bound.
type spec struct {
	mk   func() workload
	tail float64
}

var workloads = map[string]spec{
	"corpus":       {func() workload { return &corpusWorkload{} }, 50},
	"xbmc":         {func() workload { return &xbmcWorkload{} }, 75},
	"session-edit": {func() workload { return &sessionWorkload{} }, 95},
	"serve-mixed":  {func() workload { return &serveWorkload{} }, 75},
}

func main() {
	name := flag.String("workload", "", "workload: corpus, xbmc, session-edit or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench-trace"), "directory for the traced run's table and Chrome trace")
	writeExpected := flag.String("write-expected", "", "rewrite the corpus workload's expected findings under this benchmark `directory` and exit")
	loadgenBase := flag.String("loadgen", "", "internal: run as serve-mixed's load generator against this gatord `URL`")
	flag.Parse()

	if *loadgenBase != "" {
		if err := runLoadgen(*loadgenBase, *seed, time.Duration(*seconds*float64(time.Second))); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *writeExpected != "" {
		if err := writeCorpusExpected(*writeExpected); err != nil {
			fatalf("%v", err)
		}
		return
	}
	sp, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatalf("usage: perfbench --workload corpus|xbmc|session-edit|serve-mixed --seed N --seconds S --trace 0|1")
	}
	res, err := runWorkload(*name, sp, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *outDir)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runWorkload sets the workload up setupRepeats times, measures the last
// set-up, verifies its outputs and assembles the metrics.
func runWorkload(name string, sp spec, seed int64, d time.Duration, traced bool, outDir string) (*result, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		w = sp.mk()
		runtime.GC()
		start := time.Now()
		if err := w.setup(seed, d); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	if !traced {
		p, err := measure(w, d, nil, sp.tail)
		if err != nil {
			return nil, err
		}
		w.verify(p)
		report(os.Stdout, name, p, setups)
		return &result{
			Correct:   p.failed == 0,
			Attempted: p.attempted,
			Failed:    p.failed,
			Metrics:   endToEnd(p, medianFloat(setups)),
		}, nil
	}

	// Traced: an untraced half gives the reference for the tracing
	// overhead, then a traced half gives the per-layer numbers.
	base, err := measure(w, d/2, nil, sp.tail)
	if err != nil {
		return nil, err
	}
	w.verify(base)
	tr := newRecorder()
	p, err := measure(w, d/2, tr, sp.tail)
	if err != nil {
		return nil, err
	}
	w.verify(p)
	if err := w.layers(p, tr); err != nil {
		return nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	spans := tr.snapshot()
	stats := selfTimes(spans)
	if op := stats["op"]; op != nil && op.Total > 0 {
		p.layers["trace.unattributed_pct"] = 100 * float64(op.Self) / float64(op.Total)
	}
	bp50 := percentile(sortedCopy(base.lat), 50)
	tp50 := percentile(sortedCopy(p.lat), 50)
	if bp50 > 0 {
		p.layers["trace.overhead_pct"] = 100 * float64(tp50-bp50) / float64(bp50)
	}
	addRuntime(p)
	if err := writeTraced(outDir, name, seed, spans, stats, len(p.lat), tr.dropped); err != nil {
		return nil, err
	}
	report(os.Stdout, name+" (untraced half)", base, setups)
	report(os.Stdout, name+" (traced half)", p, setups)
	writeSelfTable(os.Stdout, name, stats, len(p.lat), tr.dropped)

	out := &result{
		Correct:   base.failed == 0 && p.failed == 0,
		Attempted: base.attempted + p.attempted,
		Failed:    base.failed + p.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayerMetrics {
		out.Metrics[m.name] = metric{Value: p.layers[m.name], Unit: m.unit}
	}
	return out, nil
}

// measure runs one phase between two memory-statistics readings; tail is
// the workload's latency_tail_ms percentile.
func measure(w workload, d time.Duration, tr *recorder, tail float64) (*phase, error) {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p, err := w.run(d, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&p.mem)
	p.mem.TotalAlloc -= m0.TotalAlloc
	p.mem.NumGC -= m0.NumGC
	p.mem.PauseTotalNs -= m0.PauseTotalNs
	p.tail = tail
	if len(p.lat) == 0 {
		return nil, fmt.Errorf("no op completed in %v", d)
	}
	return p, nil
}

// phase is one measured window.
type phase struct {
	lat       []time.Duration // per-op latency
	busy      time.Duration   // the time throughput divides by
	verdicts  int             // verified verdicts (apps, edits or requests)
	attempted int
	failed    int
	notes     []string
	mem       runtime.MemStats // deltas over the window for the counters used
	layers    map[string]float64
	tail      float64 // the workload's latency_tail_ms percentile
}

// fail counts one failed op and keeps its reason (the first few only).
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.notes) < 5 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// metricDef names one BENCHMARK.json metric and its unit.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"success_rate", "ratio"},
}

// perLayerMetrics is every per-layer metric; a workload leaves 0 in the
// ones whose layer it does not run or cannot observe from outside.
var perLayerMetrics = func() []metricDef {
	out := []metricDef{
		{"alite.lex_ms", "ms"}, {"alite.parse_ms", "ms"}, {"alite.tokens", "count"}, {"alite.lex_mb_per_s", "MiB/s"},
		{"layout.parse_ms", "ms"}, {"ir.build_ms", "ms"}, {"ir.shape_ms", "ms"},
		{"gator.load_ms", "ms"}, {"gator.analyze_ms", "ms"}, {"gator.check_ms", "ms"}, {"gator.sarif_ms", "ms"},
		{"core.build_ms", "ms"}, {"core.solve_ms", "ms"}, {"core.iterations", "count"}, {"core.facts", "count"},
		{"core.retract_ms", "ms"}, {"core.rebuild_ms", "ms"}, {"core.retained", "count"}, {"core.retracted", "count"},
		{"core.warm_ratio", "ratio"},
		{"checks.total_ms", "ms"},
	}
	for _, id := range checkIDs {
		out = append(out, metricDef{"checks." + id + "_ms", "ms"})
	}
	out = append(out, []metricDef{
		{"checks.findings", "count"}, {"checks.dataflow_visits", "count"},
		{"analysis.sarif_ms", "ms"}, {"analysis.sarif_bytes", "bytes"},
		{"cache.parse_hit_ratio", "ratio"}, {"cache.result_hit_ratio", "ratio"},
		{"server.queue_ms", "ms"}, {"server.parse_ms", "ms"}, {"server.solve_ms", "ms"}, {"server.render_ms", "ms"},
		{"server.http_ms", "ms"}, {"server.rejected", "count"},
		{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.alloc_mb", "MiB"},
		{"loadgen.late_ms_p99", "ms"},
		{"trace.unattributed_pct", "%"}, {"trace.overhead_pct", "%"},
	}...)
	return out
}()

// checkIDs are the registered checker passes, in registry order.
var checkIDs = func() []string {
	var ids []string
	for _, p := range checks.All() {
		ids = append(ids, p.ID)
	}
	return ids
}()

// endToEnd computes the untraced metrics of one phase.
func endToEnd(p *phase, setupS float64) map[string]metric {
	lat := sortedCopy(p.lat)
	_, _, tail := windowTail(p.lat, p.tail)
	ops := float64(len(lat))
	vals := map[string]float64{
		"setup_s":          setupS,
		"throughput_per_s": float64(p.verdicts) / p.busy.Seconds(),
		"latency_p50_ms":   ms(percentile(lat, 50)),
		"latency_tail_ms":  ms(tail),
		"alloc_mb_per_op":  float64(p.mem.TotalAlloc) / mib / ops,
		"peak_rss_mb":      peakRSSMiB(),
		"success_rate":     1 - float64(p.failed)/float64(p.attempted),
	}
	out := map[string]metric{}
	for _, m := range endToEndMetrics {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// addRuntime records the Go runtime's per-op costs of a traced phase.
func addRuntime(p *phase) {
	ops := float64(len(p.lat))
	p.layers["runtime.gc_cycles"] = float64(p.mem.NumGC) / ops
	p.layers["runtime.gc_pause_ms"] = float64(p.mem.PauseTotalNs) / 1e6 / ops
	p.layers["runtime.alloc_mb"] = float64(p.mem.TotalAlloc) / mib / ops
}

// peakRSSMiB reads the process high-water mark (VmHWM); 0 if unavailable.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// report prints one phase's summary lines (everything but the result line).
func report(f *os.File, label string, p *phase, setups []float64) {
	lat := sortedCopy(p.lat)
	q, windows, tail := windowTail(p.lat, p.tail)
	fmt.Fprintf(f, "%s: %d ops, %d verdicts in %.2fs busy; p50 %.3f ms, tail p%g %.3f ms (median of %d windows of %d+ ops, each with %d+ samples beyond); setups %.3f s\n",
		label, len(lat), p.verdicts, p.busy.Seconds(), ms(percentile(lat, 50)), q, ms(tail), windows, len(lat)/windows,
		len(lat)/windows-rankOf(len(lat)/windows, q), setups)
	fmt.Fprintf(f, "%s: attempted %d, failed %d (error_rate %.4f)\n", label, p.attempted, p.failed, float64(p.failed)/float64(max(p.attempted, 1)))
	for _, n := range p.notes {
		fmt.Fprintf(f, "%s: failure: %s\n", label, n)
	}
}

// writeTraced writes the traced run's table and its spans as a Chrome
// trace_event file.
func writeTraced(dir, name string, seed int64, spans []span, stats map[string]*layerStat, ops, dropped int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating trace output directory: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	tf, err := os.Create(base + ".table.txt")
	if err != nil {
		return err
	}
	writeSelfTable(tf, name, stats, ops, dropped)
	if err := tf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(base + ".chrome.json")
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(cf, chromeEvents(spans)); err != nil {
		cf.Close()
		return fmt.Errorf("writing Chrome trace: %w", err)
	}
	return cf.Close()
}
