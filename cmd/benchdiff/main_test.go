package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gator/internal/benchrec"
)

// repoRoot holds the checked-in BENCH_*.json baselines.
var repoRoot = filepath.Join("..", "..")

func one(m benchrec.Metric) *benchrec.Record {
	return &benchrec.Record{Metrics: []benchrec.Metric{m}}
}

// Each gate kind, on both sides of its bound.
func TestGates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		base  benchrec.Metric
		value float64
		fails bool
	}{
		{"equal holds", benchrec.MustEqual("m", "count", 5), 5, false},
		{"equal drifts up", benchrec.MustEqual("m", "count", 5), 6, true},
		{"equal drifts down", benchrec.MustEqual("m", "count", 5), 4, true},
		{"higher slack holds", benchrec.HigherIsBetter("m", "x", 10).WithSlack(0.15), 8.6, false},
		{"higher slack breaks", benchrec.HigherIsBetter("m", "x", 10).WithSlack(0.15), 8.4, true},
		{"lower slack holds", benchrec.LowerIsBetter("m", "ms", 100).WithSlack(0.15), 114, false},
		{"lower slack breaks", benchrec.LowerIsBetter("m", "ms", 100).WithSlack(0.15), 116, true},
		{"floor holds", benchrec.HigherIsBetter("m", "x", 3).WithLimit(2), 2, false},
		{"floor breaks", benchrec.HigherIsBetter("m", "x", 3).WithLimit(2), 1.99, true},
		{"ceiling holds", benchrec.LowerIsBetter("m", "%", 1).WithLimit(5), 5, false},
		{"ceiling breaks", benchrec.LowerIsBetter("m", "%", 1).WithLimit(5), 5.01, true},
		{"zero ceiling breaks", benchrec.LowerIsBetter("m", "count", 0).WithLimit(0), 1, true},
		// With both, the tighter bound decides: the floor here...
		{"floor tighter than slack", benchrec.HigherIsBetter("m", "x", 5.5).WithSlack(0.15).WithLimit(5), 4.9, true},
		// ...and the slack here.
		{"slack tighter than floor", benchrec.HigherIsBetter("m", "x", 9).WithSlack(0.15).WithLimit(5), 7.6, true},
		{"both hold", benchrec.HigherIsBetter("m", "x", 9).WithSlack(0.15).WithLimit(5), 7.7, false},
		{"ungated never fails", benchrec.LowerIsBetter("m", "ms", 1), 1e9, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := tc.base
			cur.Value = tc.value
			failures := diffRecord("BENCH_X.json", one(tc.base), one(cur), io.Discard)
			if got := len(failures) > 0; got != tc.fails {
				t.Errorf("value %g against %s (baseline %g): failures %q, want failing=%v",
					tc.value, gate(tc.base), tc.base.Value, failures, tc.fails)
			}
		})
	}
}

// Metrics are paired by name: a gated metric on one side only, or a gate
// declared differently on the two sides, fails.
func TestMetricPairing(t *testing.T) {
	gated := benchrec.HigherIsBetter("speedup", "x", 9).WithSlack(0.15).WithLimit(5)
	info := benchrec.LowerIsBetter("coldMs", "ms", 4)
	for _, tc := range []struct {
		name      string
		base, cur []benchrec.Metric
		fails     bool
	}{
		{"same metrics", []benchrec.Metric{gated, info}, []benchrec.Metric{gated, info}, false},
		{"gated missing from new", []benchrec.Metric{gated, info}, []benchrec.Metric{info}, true},
		{"gated missing from baseline", []benchrec.Metric{info}, []benchrec.Metric{gated, info}, true},
		{"ungated missing from new", []benchrec.Metric{gated, info}, []benchrec.Metric{gated}, false},
		{"slack changed", []benchrec.Metric{gated}, []benchrec.Metric{gated.WithSlack(0.5)}, true},
		{"limit changed", []benchrec.Metric{gated}, []benchrec.Metric{gated.WithLimit(3)}, true},
		{"gate added", []benchrec.Metric{info}, []benchrec.Metric{info.WithLimit(10)}, true},
		{"gate dropped", []benchrec.Metric{info.WithLimit(10)}, []benchrec.Metric{info}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failures := diffRecord("BENCH_X.json",
				&benchrec.Record{Metrics: tc.base}, &benchrec.Record{Metrics: tc.cur}, io.Discard)
			if got := len(failures) > 0; got != tc.fails {
				t.Errorf("failures %q, want failing=%v", failures, tc.fails)
			}
		})
	}
}

// copyRecord copies a checked-in record into dir under name.
func copyRecord(t *testing.T, src, dir, name string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, src))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Records are paired by file name: a record in one directory only, or a
// record of the wrong kind in a slot, fails.
func TestRecordPairing(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, cur map[string]string // slot -> checked-in source
		fails     bool
	}{
		{"matching", map[string]string{"BENCH_5.json": "BENCH_5.json"},
			map[string]string{"BENCH_5.json": "BENCH_5.json"}, false},
		{"BENCH_4 shape in the BENCH_5 slot", map[string]string{"BENCH_5.json": "BENCH_5.json"},
			map[string]string{"BENCH_5.json": "BENCH_4.json"}, true},
		{"BENCH_5 shape in the BENCH_4 slot", map[string]string{"BENCH_4.json": "BENCH_4.json"},
			map[string]string{"BENCH_4.json": "BENCH_5.json"}, true},
		{"record missing from new", map[string]string{"BENCH_4.json": "BENCH_4.json", "BENCH_5.json": "BENCH_5.json"},
			map[string]string{"BENCH_5.json": "BENCH_5.json"}, true},
		{"record missing from baseline", map[string]string{"BENCH_5.json": "BENCH_5.json"},
			map[string]string{"BENCH_4.json": "BENCH_4.json", "BENCH_5.json": "BENCH_5.json"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseDir, newDir := t.TempDir(), t.TempDir()
			for slot, src := range tc.base {
				copyRecord(t, src, baseDir, slot)
			}
			for slot, src := range tc.cur {
				copyRecord(t, src, newDir, slot)
			}
			failures, err := diffDirs(baseDir, newDir, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(failures) > 0; got != tc.fails {
				t.Errorf("failures %q, want failing=%v", failures, tc.fails)
			}
		})
	}
}

// A malformed record is bad input, not a regression.
func TestMalformedRecord(t *testing.T) {
	baseDir, newDir := t.TempDir(), t.TempDir()
	copyRecord(t, "BENCH_4.json", baseDir, "BENCH_4.json")
	bad := `{"metrics":[{"name":"speedup","unit":"x","value":9,"better":"sideways"}]}`
	if err := os.WriteFile(filepath.Join(newDir, "BENCH_4.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diffDirs(baseDir, newDir, io.Discard); err == nil || !strings.Contains(err.Error(), "sideways") {
		t.Errorf("malformed record: err %v, want a rejection of better \"sideways\"", err)
	}
}

// Every checked-in baseline passes against itself, and every gated metric
// in it can fail: a copy with only that metric pushed just past its bound
// must fail, naming that metric.
func TestCheckedInRecords(t *testing.T) {
	failures, err := diffDirs(repoRoot, repoRoot, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) > 0 {
		t.Fatalf("checked-in records fail against themselves: %q", failures)
	}

	paths, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		base, err := benchrec.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		gated := 0
		for i, m := range base.Metrics {
			if !m.Gated() {
				continue
			}
			gated++
			var past float64
			switch b, ok := bound(m); {
			case m.Better == benchrec.Equal:
				past = m.Value + 1
			case !ok:
				t.Fatalf("%s: %s is gated but has no bound", name, m.Name)
			case m.Better == benchrec.Higher:
				past = math.Nextafter(b, math.Inf(-1))
			default:
				past = math.Nextafter(b, math.Inf(1))
			}
			cur, err := benchrec.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			cur.Metrics[i].Value = past
			failures := diffRecord(name, base, cur, io.Discard)
			if len(failures) != 1 || !strings.Contains(failures[0], m.Name+":") {
				t.Errorf("%s: %s pushed to %g (%s, baseline %g): failures %q, want exactly one naming it",
					name, m.Name, past, gate(m), m.Value, failures)
			}
		}
		if gated == 0 {
			t.Errorf("%s: no gated metric", name)
		}
	}
}
