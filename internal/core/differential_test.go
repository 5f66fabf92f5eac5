package core

// The differential solver harness: the standing invariant of the optimized
// engine — CSR propagation with the delta operation worklist — is that it
// computes exactly the solution of the reference schedule
// (Options.ReferenceSolver). This file checks that invariant on every
// registered corpus application, the paper's Figure 1 app, a multi-unit
// modular app (past the 64-unit bitset page boundary), and a swarm of
// seeded-random applications.
//
// Identity is checked at full strength, matching the argument in csr.go:
// solution strings with points-to sets in insertion order are
// byte-identical, Iterations match, and with Provenance enabled the
// recorded derivation DAG — the source of Result.Why trees — is deeply
// equal.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gator/internal/alite"
	"gator/internal/corpus"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/layout"
)

// mapBuilder adapts a (sources, layouts) string-map pair to diffApp's
// fresh-program contract. Each variant gets its own ir.Program: analysis
// options like ContextSensitivity extend the program in place, so sharing
// one across runs would let variants observe each other.
func mapBuilder(t *testing.T, sources, layouts map[string]string) func() *ir.Program {
	return func() *ir.Program { return buildMaps(t, sources, layouts) }
}

func buildMaps(t testing.TB, sources, layouts map[string]string) *ir.Program {
	t.Helper()
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*alite.File, 0, len(names))
	for _, n := range names {
		f, err := alite.Parse(n, sources[n])
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		files = append(files, f)
	}
	ls := map[string]*layout.Layout{}
	for name, xml := range layouts {
		ls[name] = layout.MustParse(name, xml)
	}
	p, err := ir.Build(files, ls)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// solutionString renders the full solution — every non-empty points-to set
// plus every derived relation — as one string. Relation pairs are sorted
// (the underlying relation maps iterate in map order); points-to values
// keep insertion order, which every engine must reproduce.
func solutionString(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations %d\n", r.Iterations)
	for _, n := range r.Graph.Nodes() {
		vals := r.PointsTo(n)
		if len(vals) == 0 {
			continue
		}
		fmt.Fprintf(&b, "pts %s = {%s}\n", n, strings.Join(valueNamesTB(vals), ", "))
	}
	var rel []string
	pair := func(kind string) func(a, b graph.Value) {
		return func(a, b graph.Value) {
			rel = append(rel, kind+" "+a.String()+" -> "+b.String())
		}
	}
	r.Graph.ChildPairs(pair("child"))
	r.Graph.ListenerPairs(pair("listener"))
	r.Graph.RootPairs(pair("root"))
	r.Graph.MenuPairs(pair("menuitem"))
	for _, n := range r.Graph.Nodes() {
		v, ok := n.(graph.Value)
		if !ok {
			continue
		}
		for _, id := range r.Graph.ViewIDsOf(v) {
			rel = append(rel, "viewid "+v.String()+" -> "+id.String())
		}
		for _, tgt := range r.Graph.IntentTargets(v) {
			rel = append(rel, "intent "+v.String()+" -> "+tgt.String())
		}
		for _, l := range r.Graph.LayoutOf(v) {
			rel = append(rel, "layoutof "+v.String()+" -> "+l.String())
		}
	}
	sort.Strings(rel)
	for _, line := range rel {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func valueNamesTB(vals []graph.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out
}

// diffApp runs the default engine against the reference engine on one
// application and fails on any divergence. build must return a fresh
// program on every call.
func diffApp(t *testing.T, label string, build func() *ir.Program, base Options) {
	t.Helper()
	refOpts := base
	refOpts.ReferenceSolver = true
	want := solutionString(Analyze(build(), refOpts))
	if got := solutionString(Analyze(build(), base)); got != want {
		t.Errorf("%s: csr-delta solution diverges from reference:\n%s",
			label, firstDiff(want, got))
	}

	// Provenance runs record first-derivation-wins Why trees keyed by
	// stable node ids; any schedule drift shows up as a different DAG.
	provBase := base
	provBase.Provenance = true
	provRefOpts := provBase
	provRefOpts.ReferenceSolver = true
	provRef := Analyze(build(), provRefOpts)
	if r := Analyze(build(), provBase); !reflect.DeepEqual(r.rec.deriv, provRef.rec.deriv) {
		t.Errorf("%s: csr-delta derivation DAG diverges from reference (%d vs %d facts)",
			label, len(r.rec.deriv), len(provRef.rec.deriv))
	}
}

// firstDiff locates the first line where two solution strings diverge.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  reference: %s\n  variant:   %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: reference %d, variant %d", len(w), len(g))
}

// TestDifferentialCorpus holds the default engine byte-identical to the
// reference engine on the registered corpus applications and Figure 1,
// under both the default options and the cast-filtering refinement (the
// one option that changes propagation itself). The context-sensitive modes
// run through the same harness in TestCtxDifferentialVariants.
func TestDifferentialCorpus(t *testing.T) {
	apps := corpus.GenerateAll()
	if testing.Short() {
		apps = apps[:6]
	}
	for _, app := range apps {
		app := app
		t.Run(app.Spec.Name, func(t *testing.T) {
			t.Parallel()
			diffApp(t, app.Spec.Name, mapBuilder(t, app.BatchSources(), app.LayoutXML()), Options{})
		})
	}
	t.Run("figure1", func(t *testing.T) {
		t.Parallel()
		build := func() *ir.Program {
			p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		diffApp(t, "figure1", build, Options{})
		diffApp(t, "figure1-casts", build, Options{FilterCasts: true})
	})
	t.Run("modular80", func(t *testing.T) {
		t.Parallel()
		// 40 activities -> 82 compilation units: exercises the paged
		// unit bitsets past the first 64-bit word.
		sources, layouts := corpus.ModularApp(40)
		diffApp(t, "modular80", mapBuilder(t, sources, layouts), Options{})
	})
	t.Run("chain", func(t *testing.T) {
		t.Parallel()
		// The deep-fixpoint benchmark shape: roughly one outer iteration
		// per findViewById chain stage, so the delta worklist actually
		// skips work. Small instance here; the benchmarks run the 501-unit
		// version.
		sources, layouts := corpus.ModularChainApp(6, 5)
		diffApp(t, "chain", mapBuilder(t, sources, layouts), Options{})
	})
}

// TestDifferentialRandom sweeps seeded-random applications through both
// engines. The generator is deterministic per seed, so failures
// reproduce by seed number.
func TestDifferentialRandom(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for block := 0; block < 8; block++ {
		block := block
		t.Run(fmt.Sprintf("block%d", block), func(t *testing.T) {
			t.Parallel()
			for seed := block; seed < seeds; seed += 8 {
				sources, layouts := corpus.RandomApp(int64(seed))
				diffApp(t, fmt.Sprintf("seed%d", seed), mapBuilder(t, sources, layouts), Options{})
			}
		})
	}
}
