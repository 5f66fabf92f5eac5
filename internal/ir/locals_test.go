package ir

import (
	"sort"
	"strings"
	"testing"

	"gator/internal/alite"
	"gator/internal/corpus"
	"gator/internal/layout"
)

// checkLocalsIndexed asserts the invariant dense per-variable facts index
// by: every variable a body statement defines or uses, branch conditions
// included, is m.Locals[v.Index] of its own method m.
func checkLocalsIndexed(t *testing.T, p *Program) (vars int) {
	t.Helper()
	for _, c := range p.AppClasses() {
		for _, m := range c.MethodsSorted() {
			check := func(s Stmt, v *Var) {
				vars++
				if v.Method != m || v.Index < 0 || v.Index >= len(m.Locals) || m.Locals[v.Index] != v {
					t.Errorf("%s: %s at %s: variable %s (index %d) is not Locals[%d] of its method",
						m, s, s.Pos(), v.Name, v.Index, v.Index)
				}
			}
			WalkStmts(m.Body, func(s Stmt) {
				if d := Def(s); d != nil {
					check(s, d)
				}
				for _, u := range Uses(s) {
					check(s, u)
				}
			})
		}
	}
	return vars
}

// buildSourceMap builds an app from source and layout XML maps, with the
// parsed files in name order.
func buildSourceMap(t *testing.T, sources, layouts map[string]string) *Program {
	t.Helper()
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*alite.File
	for _, name := range names {
		files = append(files, alite.MustParse(name, sources[name]))
	}
	ls := map[string]*layout.Layout{}
	for name, xml := range layouts {
		ls[name] = layout.MustParse(name, xml)
	}
	p, err := Build(files, ls)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLocalsIndexInvariantCorpus(t *testing.T) {
	for _, a := range corpus.GenerateAll() {
		p, err := Build(a.FreshFiles(), a.FreshLayouts())
		if err != nil {
			t.Fatal(err)
		}
		if checkLocalsIndexed(t, p) == 0 {
			t.Errorf("%s: no variables checked", a.Name)
		}
	}
}

// TestLocalsIndexInvariantAfterPatch re-lowers one edited unit of the
// modular app through PatchFile — the session-edit path, which rebuilds the
// local table — and checks the invariant over the whole patched program.
func TestLocalsIndexInvariantAfterPatch(t *testing.T) {
	sources, layouts := corpus.ModularApp(120)
	p := buildSourceMap(t, sources, layouts)
	checkLocalsIndexed(t, p)

	const unit = "act7.alite"
	edited := strings.Replace(sources[unit], "\t\tthis.stash = back;\n",
		"\t\tView extra = back;\n\t\tif (extra != null) {\n\t\t\tthis.stash = extra;\n\t\t}\n", 1)
	if edited == sources[unit] {
		t.Fatal("edit did not apply")
	}
	before := len(p.Classes["Act7"].Methods["onCreate()"].Locals)
	if err := PatchFile(p, alite.MustParse(unit, edited)); err != nil {
		t.Fatal(err)
	}
	if after := len(p.Classes["Act7"].Methods["onCreate()"].Locals); after <= before {
		t.Fatalf("patched onCreate has %d locals, want more than %d", after, before)
	}
	checkLocalsIndexed(t, p)
}
