package dataflow

import (
	"fmt"
	"slices"
	"testing"

	"gator/internal/cfg"
	"gator/internal/corpus"
	"gator/internal/ir"
)

// cloneNull copies a fact, keeping bottom (nil) distinct from empty.
func cloneNull(f NullFact) NullFact {
	if f == nil {
		return nil
	}
	return append(NullFact{}, f...)
}

// relabel returns f with every Null reason replaced, so joining f with its
// relabeling exercises Join's reason tie-break on every Null entry.
func relabel(f NullFact) NullFact {
	out := cloneNull(f)
	for i, v := range out {
		if v.K == Null {
			out[i].Why = "~" + v.Why
		}
	}
	return out
}

// TestNullnessInstanceProperties holds the Nullness instance to the
// Analysis contract over every statement and branch of the corpus methods:
// Transfer and Branch never mutate their input fact, and Join is
// commutative, reason tie-break included. Invoke results are seeded null on
// alternate lines so facts carry Null values with distinct reasons; each
// block-exit fact is also refined along a synthetic null test of every
// local, so Branch's refining paths run too.
func TestNullnessInstanceProperties(t *testing.T) {
	seed := func(s *ir.Invoke) (NullVal, bool) {
		if s.At.Line%2 == 0 {
			return NullVal{K: Null, Why: fmt.Sprintf("seeded at %s", s.At)}, true
		}
		return NullVal{}, false
	}
	join := func() string { return "Join" }
	stmts, branches, joins := 0, 0, 0
	for _, a := range corpus.GenerateAll() {
		p, err := ir.Build(a.FreshFiles(), a.FreshLayouts())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range p.AppClasses() {
			for _, m := range c.MethodsSorted() {
				if m.Body == nil {
					continue
				}
				nl := &Nullness{Seed: seed}
				res := Forward[NullFact](cfg.Build(m), nl)
				checkPure := func(what func() string, in NullFact, call func(NullFact) NullFact) NullFact {
					before := cloneNull(in)
					out := call(in)
					if (before == nil) != (in == nil) || !slices.Equal(before, in) {
						t.Fatalf("%s: %s mutated its input: %v became %v", m, what(), before, in)
					}
					return out
				}
				var facts []NullFact
				for _, b := range res.Graph.Blocks {
					fact := res.In[b.Index]
					for _, s := range b.Stmts {
						stmts++
						fact = checkPure(func() string { return "Transfer(" + s.String() + ")" }, fact, func(f NullFact) NullFact {
							return nl.Transfer(s, f)
						})
					}
					out := res.Out[b.Index]
					facts = append(facts, out)
					conds := []ir.Cond{}
					if b.Cond != nil {
						conds = append(conds, *b.Cond)
					}
					for _, v := range m.Locals {
						conds = append(conds, ir.Cond{X: v}, ir.Cond{X: v, Negated: true})
					}
					for _, cond := range conds {
						for _, taken := range []bool{true, false} {
							branches++
							what := func() string { return fmt.Sprintf("Branch(%v, %v)", cond, taken) }
							facts = append(facts, checkPure(what, out,
								func(f NullFact) NullFact { return nl.Branch(cond, taken, f) }))
						}
					}
				}
				for i, x := range facts {
					pair := []NullFact{relabel(x)}
					if i+1 < len(facts) {
						pair = append(pair, facts[i+1])
					}
					for _, y := range pair {
						joins++
						xy := checkPure(join, x, func(f NullFact) NullFact { return nl.Join(f, y) })
						yx := checkPure(join, y, func(f NullFact) NullFact { return nl.Join(f, x) })
						if (xy == nil) != (yx == nil) || !nl.Equal(xy, yx) {
							t.Fatalf("%s: Join not commutative: %v ⊔ %v = %v, but reversed = %v", m, x, y, xy, yx)
						}
					}
				}
			}
		}
	}
	if stmts == 0 || branches == 0 || joins == 0 {
		t.Fatalf("vacuous: %d statements, %d branches, %d joins", stmts, branches, joins)
	}
}
