package dataflow

import (
	"slices"

	"gator/internal/cfg"
	"gator/internal/ir"
)

// NullKind is one point of the per-variable nullness lattice:
//
//	   Unknown (may be either)
//	   /            \
//	Null          NonNull
//	   \            /
//	 (unreachable: no fact)
//
// The full fact (NullFact) holds one NullVal per method local; the zero
// NullVal is Unknown and the nil fact is the bottom (unreachable) element.
type NullKind uint8

const (
	// NullUnknown is the lattice top: the variable may or may not be null.
	NullUnknown NullKind = iota
	// Null means the variable is definitely null at this point.
	Null
	// NonNull means the variable definitely holds an object.
	NonNull
)

func (k NullKind) String() string {
	switch k {
	case Null:
		return "null"
	case NonNull:
		return "non-null"
	}
	return "unknown"
}

// NullVal is the per-variable fact: the lattice point plus, for Null, a
// human-readable reason used in diagnostics ("findViewById(R.id.x) at ...
// never finds a view").
type NullVal struct {
	K   NullKind
	Why string
}

// NullFact is the dense nullness fact of one method: entry i is the value
// of Method.Locals[i] (ir.Var.Index), and the zero NullVal is NullUnknown.
// The nil fact is bottom (unreachable). Facts are shared between program
// points and must never be mutated in place; set returns a fresh copy.
type NullFact []NullVal

// Get returns the fact for v (NullUnknown when unset or unreachable).
func (f NullFact) Get(v *ir.Var) NullVal {
	if v == nil || v.Index >= len(f) {
		return NullVal{}
	}
	return f[v.Index]
}

// Nullness is the flow-sensitive null-tracking instance. Seed classifies
// call results using the solved reference analysis: a find-view call whose
// static solution is empty is definitely null — this is what turns the
// flow-insensitive "dangling findViewById" call-site guess into precise
// dereference-site diagnostics. An instance memoizes the reason text of
// each null constant, so one instance serves one goroutine.
type Nullness struct {
	// Seed returns the nullness of an invoke result, and whether the seed
	// applies. Invokes without a seed produce NullUnknown results.
	Seed func(s *ir.Invoke) (NullVal, bool)

	nullWhy map[*ir.ConstNull]string
}

// SolveNullness runs the nullness analysis over one CFG.
func SolveNullness(g *cfg.Graph, seed func(s *ir.Invoke) (NullVal, bool)) *Result[NullFact] {
	return Forward[NullFact](g, &Nullness{Seed: seed})
}

func (nl *Nullness) Bottom() NullFact { return nil }

func (nl *Nullness) Entry(g *cfg.Graph) NullFact {
	f := make(NullFact, len(g.Method.Locals))
	if t := g.Method.This; t != nil {
		f[t.Index] = NullVal{K: NonNull}
	}
	return f
}

// joinVal is the lattice join of one variable: values of the same kind
// survive with the lexicographically smaller reason, so joins are
// order-independent; anything else rises to Unknown.
func joinVal(a, b NullVal) NullVal {
	if a.K != b.K {
		return NullVal{}
	}
	if b.Why < a.Why {
		a.Why = b.Why
	}
	return a
}

// Join is the pointwise lattice join of two facts of one method. Bottom is
// the identity, and a side equal to the join is returned as is rather than
// copied.
func (nl *Nullness) Join(a, b NullFact) NullFact {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	var out NullFact
	for i, av := range a {
		j := joinVal(av, b[i])
		if out == nil {
			if j == av {
				continue
			}
			out = make(NullFact, len(a))
			copy(out, a[:i])
		}
		out[i] = j
	}
	if out == nil {
		return a
	}
	return out
}

func (nl *Nullness) Equal(a, b NullFact) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// set returns f with v set to val: f itself when v already holds val, a
// fresh copy otherwise. Unknown values are stored as the zero NullVal.
func (f NullFact) set(v *ir.Var, val NullVal) NullFact {
	if val.K == NullUnknown {
		val = NullVal{}
	}
	if f[v.Index] == val {
		return f
	}
	out := slices.Clone(f)
	out[v.Index] = val
	return out
}

// assignedWhy returns the reason of a null constant, rendered once per
// statement.
func (nl *Nullness) assignedWhy(s *ir.ConstNull) string {
	if why, ok := nl.nullWhy[s]; ok {
		return why
	}
	if nl.nullWhy == nil {
		nl.nullWhy = map[*ir.ConstNull]string{}
	}
	why := "null assigned at " + s.At.String()
	nl.nullWhy[s] = why
	return why
}

func (nl *Nullness) Transfer(s ir.Stmt, in NullFact) NullFact {
	if in == nil {
		return nil // unreachable stays unreachable
	}
	switch s := s.(type) {
	case *ir.ConstNull:
		return in.set(s.Dst, NullVal{K: Null, Why: nl.assignedWhy(s)})
	case *ir.New:
		return in.set(s.Dst, NullVal{K: NonNull})
	case *ir.ConstInt:
		return in.set(s.Dst, NullVal{K: NonNull})
	case *ir.ConstRes:
		return in.set(s.Dst, NullVal{K: NonNull})
	case *ir.ConstClass:
		return in.set(s.Dst, NullVal{K: NonNull})
	case *ir.Copy:
		return in.set(s.Dst, in.Get(s.Src))
	case *ir.Load:
		// Field contents are unknown; a completed load proves the base
		// was non-null.
		out := in.set(s.Dst, NullVal{})
		return out.set(s.Base, NullVal{K: NonNull})
	case *ir.Store:
		return in.set(s.Base, NullVal{K: NonNull})
	case *ir.Invoke:
		// A completed call proves the receiver non-null; the result takes
		// its seed from the reference analysis when one exists.
		out := in.set(s.Recv, NullVal{K: NonNull})
		if s.Dst != nil {
			val := NullVal{}
			if nl.Seed != nil {
				if sv, ok := nl.Seed(s); ok {
					val = sv
				}
			}
			out = out.set(s.Dst, val)
		}
		return out
	}
	return in
}

// Branch refines the fact along a null-test edge. An edge contradicting a
// definite fact is infeasible and yields bottom, which keeps downstream
// diagnostics quiet on paths that cannot execute.
func (nl *Nullness) Branch(c ir.Cond, taken bool, out NullFact) NullFact {
	if out == nil || c.Nondet || c.X == nil {
		return out
	}
	// "x == null" taken, or "x != null" not taken, means x is null here.
	isNull := taken != c.Negated
	cur := out.Get(c.X)
	if isNull {
		if cur.K == NonNull {
			return nil // infeasible edge
		}
		if cur.K == Null {
			return out
		}
		return out.set(c.X, NullVal{K: Null, Why: "tested == null"})
	}
	if cur.K == Null {
		return nil // infeasible edge
	}
	return out.set(c.X, NullVal{K: NonNull})
}
