package checks

import (
	"sort"
	"testing"

	"gator/internal/alite"
	"gator/internal/cfg"
	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/dataflow"
	"gator/internal/ir"
	"gator/internal/layout"
)

// nullTestApp holds null tests and no other null source: no null constant,
// and its find-view call resolves, so it carries no seed. Only the
// classifier's null-test clause marks these methods as null sources.
const nullTestApp = `
class Main extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View v = this.findViewById(R.id.root);
		if (v == null) {
			View w = v;
		}
	}
	void drain(View x) {
		while (x != null) {
			x.setId(R.id.root);
		}
		View y = x;
	}
}`

// buildSources parses one app given as source and layout XML maps.
func buildSources(t *testing.T, sources, layouts map[string]string) *ir.Program {
	t.Helper()
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*alite.File
	for _, name := range names {
		f, err := alite.Parse(name, sources[name])
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	ls := map[string]*layout.Layout{}
	for name, xml := range layouts {
		l, err := layout.Parse(name, xml)
		if err != nil {
			t.Fatal(err)
		}
		ls[name] = l
	}
	p, err := ir.Build(files, ls)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNullSourceSkipSound machine-checks the skip in checkNullViewDeref:
// for every app method the classifier marks as holding no null source, a
// full nullness solve holds no Null in any block-exit fact or any
// per-statement fact. Inputs are the corpus, the XBMC-shaped stressor, the
// modular app, the lifecycle scenario pack with its clean twins and a
// null-test fixture, under every context mode.
func TestNullSourceSkipSound(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every app method of 143 apps under three modes")
	}
	var progs []func() *ir.Program
	for _, a := range corpus.GenerateAll() {
		progs = append(progs, func() *ir.Program {
			p, err := ir.Build(a.FreshFiles(), a.FreshLayouts())
			if err != nil {
				t.Fatal(err)
			}
			return p
		})
	}
	addSources := func(s, l map[string]string) {
		progs = append(progs, func() *ir.Program { return buildSources(t, s, l) })
	}
	addSources(corpus.PolymorphicHelperApp(200))
	addSources(corpus.ModularApp(120))
	for _, spec := range corpus.ScenarioPack(60) {
		for _, sp := range []corpus.ScenarioSpec{spec, spec.CleanTwin()} {
			a := corpus.GenerateScenario(sp)
			addSources(a.BatchSources(), a.LayoutXML())
		}
	}
	addSources(map[string]string{"nulltest.alite": nullTestApp},
		map[string]string{"main": `<LinearLayout android:id="@+id/root"/>`})

	skipped, solved := 0, 0
	for _, mode := range []core.CtxMode{core.CtxOff, core.Ctx1CFA, core.Ctx1Obj} {
		for _, build := range progs {
			ctx := NewContext(core.Analyze(build(), core.Options{ContextSensitivity: mode}))
			for _, m := range ctx.AppMethods() {
				if ctx.mayHoldNull(m) {
					solved++
					continue
				}
				skipped++
				res := ctx.Nullness(m)
				for i, out := range res.Out {
					if v := nullLocal(m, out); v != nil {
						t.Errorf("%s %s: classified without null source, but %s is null at exit of block %d",
							mode, m, v.Name, i)
					}
				}
				res.VisitStmts(func(_ *cfg.Block, s ir.Stmt, before dataflow.NullFact) {
					if v := nullLocal(m, before); v != nil {
						t.Errorf("%s %s: classified without null source, but %s is null before %s at %s",
							mode, m, v.Name, s, s.Pos())
					}
				})
			}
		}
	}
	if solved == 0 || skipped == 0 {
		t.Fatalf("vacuous: %d methods solved, %d skipped", solved, skipped)
	}
	t.Logf("%d methods solved, %d skipped", solved, skipped)
}

// nullLocal returns a local of m that f holds as Null, or nil.
func nullLocal(m *ir.Method, f dataflow.NullFact) *ir.Var {
	for _, v := range m.Locals {
		if f.Get(v).K == dataflow.Null {
			return v
		}
	}
	return nil
}
