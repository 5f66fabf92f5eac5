// Command benchdiff compares freshly regenerated benchmark records against
// the checked-in baselines and exits non-zero on regression. Records are
// the BENCH_*.json files of internal/benchrec, paired by file name; their
// metrics are paired by name, and each metric's gate — declared by
// gatorbench where it measures the metric — is applied to the regenerated
// value. The gate comes from the baseline; a regenerated record that
// declares it differently must be re-baselined (gatorbench -records .).
//
// The diff fails on a gated metric that regresses past its bound, and on
// any record, or gated metric, present on one side only. Ungated metrics
// are recorded for trend reading and never fail.
//
// Usage:
//
//	benchdiff BASELINE_DIR NEW_DIR
//
// Exit status: 0 when every gate holds, 1 on any regression, 2 on usage
// errors and unreadable or malformed records.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"gator/internal/benchrec"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff BASELINE_DIR NEW_DIR")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	failures, err := diffDirs(flag.Arg(0), flag.Arg(1), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchdiff: REGRESSION:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok")
}

// recordFiles lists the BENCH_*.json file names in dir.
func recordFiles(dir string) (map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, p := range paths {
		names[filepath.Base(p)] = true
	}
	return names, nil
}

// diffDirs diffs every record in newDir against its baseline in baseDir,
// printing one line per gated metric to out, and returns the failures.
func diffDirs(baseDir, newDir string, out io.Writer) ([]string, error) {
	baseNames, err := recordFiles(baseDir)
	if err != nil {
		return nil, err
	}
	newNames, err := recordFiles(newDir)
	if err != nil {
		return nil, err
	}
	if len(baseNames) == 0 {
		return nil, fmt.Errorf("%s: no BENCH_*.json records", baseDir)
	}
	all := map[string]bool{}
	for n := range baseNames {
		all[n] = true
	}
	for n := range newNames {
		all[n] = true
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		if !baseNames[name] || !newNames[name] {
			dir := baseDir
			if newNames[name] {
				dir = newDir
			}
			failures = append(failures, fmt.Sprintf("%s: record present only in %s", name, dir))
			continue
		}
		base, err := benchrec.Read(filepath.Join(baseDir, name))
		if err != nil {
			return nil, err
		}
		cur, err := benchrec.Read(filepath.Join(newDir, name))
		if err != nil {
			return nil, err
		}
		failures = append(failures, diffRecord(name, base, cur, out)...)
	}
	return failures, nil
}

// diffRecord applies the baseline's gates to the regenerated record.
func diffRecord(name string, base, cur *benchrec.Record, out io.Writer) []string {
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, name+": "+fmt.Sprintf(format, args...))
	}
	curBy := map[string]benchrec.Metric{}
	for _, m := range cur.Metrics {
		curBy[m.Name] = m
	}
	baseBy := map[string]bool{}
	for _, b := range base.Metrics {
		baseBy[b.Name] = true
		c, ok := curBy[b.Name]
		switch {
		case !ok && b.Gated():
			fail("%s: missing from the regenerated record", b.Name)
			continue
		case !ok:
			continue
		case (b.Gated() || c.Gated()) && gate(b) != gate(c):
			fail("%s: gate changed from %s to %s; re-baseline", b.Name, gate(b), gate(c))
			continue
		case !b.Gated():
			continue
		}
		fmt.Fprintf(out, "%s: %s %g %s vs baseline %g (%s)\n",
			name, b.Name, c.Value, b.Unit, b.Value, gate(b))
		if msg := check(b, c.Value); msg != "" {
			fail("%s: %s", b.Name, msg)
		}
	}
	for _, c := range cur.Metrics {
		if c.Gated() && !baseBy[c.Name] {
			fail("%s: gated metric missing from the baseline", c.Name)
		}
	}
	return failures
}

// gate renders a metric's gate declaration; two metrics gate alike iff
// their renderings match.
func gate(m benchrec.Metric) string {
	s := string(m.Better)
	if m.Slack != nil {
		s += fmt.Sprintf(", slack %g", *m.Slack)
	}
	if m.Limit != nil {
		s += fmt.Sprintf(", limit %g", *m.Limit)
	}
	return s
}

// bound returns the tightest acceptable value under base's gate: for
// higher, the value may not fall below it; for lower, not rise above it.
// ok is false for an equal or ungated metric.
func bound(base benchrec.Metric) (b float64, ok bool) {
	if base.Better == benchrec.Equal {
		return 0, false
	}
	sign := 1.0 // lower is better: the value may rise by the slack
	if base.Better == benchrec.Higher {
		sign = -1
	}
	if base.Slack != nil {
		b, ok = base.Value*(1+sign*(*base.Slack)), true
	}
	if base.Limit != nil && (!ok || sign*(*base.Limit) < sign*b) {
		b, ok = *base.Limit, true
	}
	return b, ok
}

// check returns why v fails base's gate, or "" when it holds.
func check(base benchrec.Metric, v float64) string {
	if base.Better == benchrec.Equal {
		if v != base.Value {
			return fmt.Sprintf("%g, baseline %g (must be equal)", v, base.Value)
		}
		return ""
	}
	limit, ok := bound(base)
	switch {
	case !ok:
		return ""
	case base.Better == benchrec.Higher && v < limit:
		return fmt.Sprintf("%g %s below %g (baseline %g; %s)", v, base.Unit, limit, base.Value, gate(base))
	case base.Better == benchrec.Lower && v > limit:
		return fmt.Sprintf("%g %s above %g (baseline %g; %s)", v, base.Unit, limit, base.Value, gate(base))
	}
	return ""
}
