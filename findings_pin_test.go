package gator

// Pinned checker output across every context-sensitivity mode. The
// helper-call null seeds and the program-point refinements of the
// flow-sensitive layer exist mainly for the cloning modes, so the findings
// of the corpus, the XBMC-shaped stressor, the modular app and the
// lifecycle scenario pack are pinned under off, 1cfa and 1obj alike.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gator/internal/corpus"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned_findings.txt")

const pinnedFindingsFile = "testdata/pinned_findings.txt"

type pinApp struct {
	name             string
	sources, layouts map[string]string
}

func pinApps() []pinApp {
	var out []pinApp
	for _, a := range corpus.GenerateAll() {
		out = append(out, pinApp{a.Name, a.BatchSources(), a.LayoutXML()})
	}
	s, l := corpus.PolymorphicHelperApp(200)
	out = append(out, pinApp{"PolymorphicHelperApp200", s, l})
	s, l = corpus.ModularApp(120)
	out = append(out, pinApp{"ModularApp120", s, l})
	for _, spec := range corpus.ScenarioPack(60) {
		for _, sp := range []corpus.ScenarioSpec{spec, spec.CleanTwin()} {
			a := corpus.GenerateScenario(sp)
			out = append(out, pinApp{sp.Name(), a.BatchSources(), a.LayoutXML()})
		}
	}
	return out
}

// renderPinned is the full text form of one report's findings.
func renderPinned(cr *CheckReport) string {
	var b strings.Builder
	for _, f := range cr.Findings {
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\n", f.Check, f.Severity, f.Pos, f.Msg, f.SuggestedFix)
	}
	fmt.Fprintf(&b, "suppressed %d\n", cr.Suppressed)
	return b.String()
}

// TestPinnedFindings renders CheckReport for every pinned app under every
// context mode and compares each (mode, app) against a
// `mode app count sha256` line of testdata/pinned_findings.txt. It also
// holds the checkers read-only over the solution: running them must not
// intern a single graph node. Regenerate with
// `go test -run TestPinnedFindings -update .`.
func TestPinnedFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 142 apps under three modes")
	}
	want := map[string]string{}
	if !*updatePinned {
		data, err := os.ReadFile(pinnedFindingsFile)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed line %q", line)
			}
			want[f[0]+" "+f[1]] = line
		}
	}
	var got []string
	for _, app := range pinApps() {
		loaded, err := Load(app.sources, app.layouts)
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		for _, mode := range []CtxMode{CtxOff, Ctx1CFA, Ctx1Obj} {
			res := loaded.Analyze(Options{ContextSensitivity: mode})
			before := len(res.res.Graph.Nodes())
			cr, err := res.CheckReport()
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, app.name, err)
			}
			if after := len(res.res.Graph.Nodes()); after != before {
				t.Errorf("%s/%s: the checkers grew the graph from %d to %d nodes", mode, app.name, before, after)
			}
			text := renderPinned(cr)
			line := fmt.Sprintf("%s %s %d %x", mode, app.name, len(cr.Findings), sha256.Sum256([]byte(text)))
			got = append(got, line)
			key := mode.String() + " " + app.name
			if *updatePinned {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no pinned line", key)
			} else if w != line {
				t.Errorf("%s: findings changed\n got: %s\nwant: %s\nfindings:\n%s", key, line, w, text)
			}
			delete(want, key)
		}
	}
	if *updatePinned {
		if err := os.WriteFile(pinnedFindingsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key := range want {
		t.Errorf("%s: pinned line for an app no longer generated", key)
	}
}
