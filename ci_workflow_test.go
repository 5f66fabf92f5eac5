package gator

// The GitHub Actions workflows are plain data no compiler checks, and a
// YAML syntax slip (a stray tab, a typo'd trigger key) silently disables
// CI instead of failing it. These tests lint .github/workflows/*.yml with
// the strictness a config file deserves — structure, indentation, and the
// contract that CI actually invokes the repo's own gates — using only the
// stdlib (the repo takes no external dependencies, so no yaml package).

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gator/internal/benchrec"
)

// readWorkflow loads one workflow file and applies the YAML subset lint
// every workflow must pass: no tabs (YAML forbids them in indentation and
// GitHub rejects them), no trailing whitespace, even space indentation,
// and balanced ${{ }} expressions.
func readWorkflow(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(".github", "workflows", name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("workflow missing: %v", err)
	}
	text := string(data)
	for i, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "\t") {
			t.Errorf("%s:%d: tab character (YAML indentation must be spaces)", path, i+1)
		}
		if line != strings.TrimRight(line, " ") {
			t.Errorf("%s:%d: trailing whitespace", path, i+1)
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if indent%2 != 0 && !strings.HasPrefix(strings.TrimSpace(line), "#") {
			t.Errorf("%s:%d: odd indentation (%d spaces)", path, i+1, indent)
		}
		if strings.Count(line, "${{") != strings.Count(line, "}}") {
			t.Errorf("%s:%d: unbalanced ${{ }} expression", path, i+1)
		}
	}
	return text
}

// topLevelKeys returns the zero-indent mapping keys of a workflow document.
func topLevelKeys(text string) map[string]bool {
	keys := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, " ") || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, ":"); i > 0 {
			keys[line[:i]] = true
		}
	}
	return keys
}

// requireAll asserts each marker appears in the workflow text.
func requireAll(t *testing.T, path, text string, markers []string) {
	t.Helper()
	for _, m := range markers {
		if !strings.Contains(text, m) {
			t.Errorf("%s: missing %q", path, m)
		}
	}
}

// checkActionsPinned asserts every `uses:` references a major version tag,
// so an action update is an explicit diff rather than a moving target.
func checkActionsPinned(t *testing.T, path, text string) {
	t.Helper()
	for i, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "- "))
		if !strings.HasPrefix(trimmed, "uses:") {
			continue
		}
		ref := strings.TrimSpace(strings.TrimPrefix(trimmed, "uses:"))
		if !strings.Contains(ref, "@v") {
			t.Errorf("%s:%d: action %q not pinned to a major version", path, i+1, ref)
		}
	}
}

// checkJobTimeouts asserts every job carries its own timeout-minutes
// ceiling. GitHub's default is 6 hours; a hung smoke or fuzz target should
// fail the run, not hold a runner. Jobs are counted by their `runs-on`
// lines, so a new job without a timeout fails here rather than shipping.
func checkJobTimeouts(t *testing.T, path, text string) {
	t.Helper()
	jobs := strings.Count(text, "runs-on:")
	timeouts := strings.Count(text, "timeout-minutes:")
	if jobs == 0 {
		t.Errorf("%s: no runs-on lines; job counting is broken", path)
	}
	if timeouts != jobs {
		t.Errorf("%s: %d jobs but %d timeout-minutes lines; every job needs its own ceiling", path, jobs, timeouts)
	}
}

func TestCIWorkflow(t *testing.T) {
	text := readWorkflow(t, "ci.yml")
	keys := topLevelKeys(text)
	for _, k := range []string{"name", "on", "permissions", "jobs"} {
		if !keys[k] {
			t.Errorf("ci.yml: missing top-level key %q", k)
		}
	}
	requireAll(t, "ci.yml", text, []string{
		// Triggers: every push to main and every pull request.
		"push:", "pull_request:",
		// The gate job must run this repo's own tier-1 script, not an
		// inlined command list that can drift from it.
		"scripts/ci.sh",
		// Go version matrix: current and previous release.
		"matrix", "stable", "oldstable",
		"actions/checkout@", "actions/setup-go@",
		// Module/build caching and the separate full race-detector job.
		"cache: true", "go test -race ./...",
		// Failed runs keep their logs — and the cluster smoke's per-replica
		// request logs (ci.sh step 12 writes them to cluster-smoke-logs/).
		"if: failure()", "actions/upload-artifact@",
		"cluster-smoke-logs",
	})
	checkActionsPinned(t, "ci.yml", text)
	checkJobTimeouts(t, "ci.yml", text)
}

func TestNightlyWorkflow(t *testing.T) {
	text := readWorkflow(t, "nightly.yml")
	keys := topLevelKeys(text)
	for _, k := range []string{"name", "on", "permissions", "jobs"} {
		if !keys[k] {
			t.Errorf("nightly.yml: missing top-level key %q", k)
		}
	}
	requireAll(t, "nightly.yml", text, []string{
		"schedule:", "cron:", "workflow_dispatch",
		// Benchmark regression gate over every checked-in record (the
		// record wiring is held by TestBenchRecordWiringInSync).
		"scripts/benchdiff.sh",
		"BenchmarkIncrementalEdit",
		// The cluster failover smoke runs nightly with its replica logs
		// under bench-new/, where the failure artifact picks them up.
		"gatorproxy -smoke", "bench-new/cluster-smoke-logs",
		// Fuzz budget: 30 seconds per target, all targets present.
		"-fuzztime 30s", "FuzzParse", "FuzzLayout", "FuzzOrderingScenario",
		// Crashers and regenerated records survive the failed run.
		"if: failure()", "actions/upload-artifact@",
	})
	checkActionsPinned(t, "nightly.yml", text)
	checkJobTimeouts(t, "nightly.yml", text)
}

// TestCIScriptsExist pins the coupling between the workflows and the
// scripts they invoke: renaming a script must fail the suite, not silently
// break CI.
func TestCIScriptsExist(t *testing.T) {
	for _, s := range []string{"scripts/ci.sh", "scripts/benchdiff.sh"} {
		info, err := os.Stat(s)
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if info.Mode()&0o111 == 0 {
			t.Errorf("%s: not executable", s)
		}
	}
}

// readRecord loads one checked-in benchmark record and returns its metrics
// by name.
func readRecord(t *testing.T, path string) map[string]benchrec.Metric {
	t.Helper()
	r, err := benchrec.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]benchrec.Metric{}
	for _, m := range r.Metrics {
		byName[m.Name] = m
	}
	return byName
}

// requireGated asserts each named metric is in the record and carries a
// gate benchdiff applies.
func requireGated(t *testing.T, path string, metrics map[string]benchrec.Metric, names []string) {
	t.Helper()
	for _, n := range names {
		m, ok := metrics[n]
		if !ok {
			t.Errorf("%s: missing metric %q", path, n)
		} else if !m.Gated() {
			t.Errorf("%s: metric %q carries no gate", path, n)
		}
	}
}

// TestCIScriptsCoverPrecision pins the precision gate: ci.sh must run the
// context-sensitivity smoke step, and the checked-in precision record must
// gate the ratio and soundness violations of every mode (benchdiff.sh
// regenerates and diffs it with the other records).
func TestCIScriptsCoverPrecision(t *testing.T) {
	data, err := os.ReadFile("scripts/ci.sh")
	if err != nil {
		t.Fatal(err)
	}
	requireAll(t, "scripts/ci.sh", string(data), []string{"-ctx 1cfa", "-table precision"})
	var names []string
	for _, mode := range []string{"off", "1cfa", "1obj"} {
		names = append(names, mode+"/ratio", mode+"/violations")
	}
	requireGated(t, "BENCH_7.json", readRecord(t, "BENCH_7.json"), names)
}

// TestCIScriptsCoverCluster pins the cluster gate into the tier-1 script:
// the server smoke must exercise replica identity, the cluster smoke must
// run with its replica logs where ci.yml's failure artifact expects them,
// and the short race sweep must include the cluster package (the proxy's
// whole job is concurrent routing). The checked-in cluster record must gate
// the failover experiment.
func TestCIScriptsCoverCluster(t *testing.T) {
	data, err := os.ReadFile("scripts/ci.sh")
	if err != nil {
		t.Fatal(err)
	}
	requireAll(t, "scripts/ci.sh", string(data), []string{
		"gatord -smoke -replica",
		"gatorproxy -smoke -smoke-logs cluster-smoke-logs",
		"./internal/cluster",
	})
	requireGated(t, "BENCH_9.json", readRecord(t, "BENCH_9.json"),
		[]string{"failedRequests", "recreates", "failoverP99Ms"})
}

// TestBenchRecordWiringInSync holds the benchmark-record wiring: every
// checked-in BENCH_*.json is a valid record, scripts/benchdiff.sh
// regenerates them all with `gatorbench -records` into a scratch directory
// and diffs them with cmd/benchdiff, ci.sh and the nightly workflow run
// that script, and ci.sh never writes records itself (re-baselining is the
// explicit `gatorbench -records .`). benchdiff.sh may not name a record
// that is not checked in. cmd/gatorbench's TestRecordListMatchesBaselines
// holds gatorbench's record list equal to the checked-in set.
func TestBenchRecordWiringInSync(t *testing.T) {
	records, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no checked-in BENCH_*.json records; the glob is broken")
	}
	checked := map[string]bool{}
	for _, r := range records {
		readRecord(t, r)
		checked[r] = true
	}
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	diffScript := read("scripts/benchdiff.sh")
	requireAll(t, "scripts/benchdiff.sh", diffScript, []string{
		`go run ./cmd/gatorbench -table 2 -records "$OUT"`,
		`go run ./cmd/benchdiff . "$OUT"`,
	})
	ci := read("scripts/ci.sh")
	requireAll(t, "scripts/ci.sh", ci, []string{"scripts/benchdiff.sh"})
	if strings.Contains(ci, "-records") {
		t.Error("scripts/ci.sh passes -records itself; it must regenerate only through scripts/benchdiff.sh")
	}
	nightly := filepath.Join(".github", "workflows", "nightly.yml")
	requireAll(t, nightly, read(nightly), []string{"scripts/benchdiff.sh bench-new"})
	for _, f := range strings.Fields(diffScript) {
		if strings.HasPrefix(f, "BENCH_") && strings.HasSuffix(f, ".json") &&
			!strings.Contains(f, "*") && !checked[f] {
			t.Errorf("scripts/benchdiff.sh references %s, which is not checked in", f)
		}
	}
}
