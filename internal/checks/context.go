package checks

import (
	"fmt"
	"sort"

	"gator/internal/cfg"
	"gator/internal/core"
	"gator/internal/dataflow"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/lifecycle"
	"gator/internal/platform"
	"gator/internal/trace"
)

// Context carries the solved reference analysis plus lazily built
// flow-sensitive artifacts shared across passes, each memoized on first use:
// the sorted app-method list, per-method CFGs, nullness and
// reaching-definitions solutions, definition indexes, the site → operation
// index, the nullness seeds with the set of methods that can hold a null,
// helper-call dispatch verdicts per (declared receiver class, key), and
// per-method returnsModeled verdicts. Graph and IR queries go to the graph
// and the program themselves. One Context serves one app; passes must not
// mutate it beyond the memoization the accessors perform.
type Context struct {
	Res *core.Result

	// Trace, when non-nil, receives one dataflow event per nullness solve
	// with the method name and its block-visit count.
	Trace *trace.Scope

	appMethods []*ir.Method
	cfgs       map[*ir.Method]*cfg.Graph
	nullRes    map[*ir.Method]*dataflow.Result[dataflow.NullFact]
	siteOps    map[*ir.Invoke][]*graph.OpNode
	methOps    map[*ir.Method][]*graph.OpNode
	nullSeed   map[*ir.Invoke]dataflow.NullVal
	nullSrc    map[*ir.Method]bool
	indexed    bool

	// Helper-call seeding memos: viewHelperCall per call key and
	// returnsModeled per method.
	helperCalls map[helperKey]bool
	retModeled  map[*ir.Method]bool

	// Program-point flowsTo machinery (flowsto.go).
	reach  map[*ir.Method]*dataflow.ReachingDefs
	allocs map[*ir.New][]graph.Value
	defs   map[*ir.Method]*defIndex

	// Lifecycle schedule (lifecycle.go), built on first ordering query.
	sched *lifecycle.Schedule
}

// NewContext prepares a pass context over one solved analysis.
func NewContext(res *core.Result) *Context {
	return &Context{
		Res:     res,
		cfgs:    map[*ir.Method]*cfg.Graph{},
		nullRes: map[*ir.Method]*dataflow.Result[dataflow.NullFact]{},
	}
}

// AppMethods returns every application method with a body, in deterministic
// (class, signature) order. The slice is memoized; callers must not modify
// it.
func (c *Context) AppMethods() []*ir.Method {
	if c.appMethods != nil {
		return c.appMethods
	}
	out := []*ir.Method{}
	for _, cl := range c.Res.Prog.AppClasses() {
		for _, m := range cl.MethodsSorted() {
			if m.Body != nil {
				out = append(out, m)
			}
		}
	}
	c.appMethods = out
	return out
}

// CFG returns the memoized control-flow graph of a method.
func (c *Context) CFG(m *ir.Method) *cfg.Graph {
	if g, ok := c.cfgs[m]; ok {
		return g
	}
	g := cfg.Build(m)
	c.cfgs[m] = g
	return g
}

// buildIndexes populates the site → operations and method → operations maps
// and the nullness seeds, once.
func (c *Context) buildIndexes() {
	if c.indexed {
		return
	}
	c.indexed = true
	c.siteOps = map[*ir.Invoke][]*graph.OpNode{}
	c.methOps = map[*ir.Method][]*graph.OpNode{}
	for _, op := range c.Res.Graph.Ops() {
		if op.Site != nil {
			c.siteOps[op.Site] = append(c.siteOps[op.Site], op)
		}
		if op.Method != nil {
			c.methOps[op.Method] = append(c.methOps[op.Method], op)
		}
	}

	// Nullness seeds: a find-view site is definitely null when every
	// operation node materialized for it is live (receiver and id reached)
	// yet produces no view in the solution. This is the reference-analysis
	// seeding of the nullness lattice: it turns the flow-insensitive
	// "dangling findViewById" call-site fact into per-dereference facts.
	c.nullSeed = map[*ir.Invoke]dataflow.NullVal{}
	for site, ops := range c.siteOps {
		val, ok := c.seedForSite(site, ops)
		if ok {
			c.nullSeed[site] = val
		}
	}

	// Empty-helper-call seeds: a call to an application helper whose solved
	// result is empty, while the callee demonstrably produces views (it
	// contains find-view operations), returns null at this site. The merged
	// insensitive solution rarely proves such a result empty — some other
	// caller usually keeps it alive; under Options.ContextSensitivity the
	// per-caller clone split can empty exactly one caller's result, and
	// these seeds are where that sharper precision frontier reaches the
	// nullness checker.
	//
	// The same walk classifies each method as a null source or not: only a
	// null constant, a seeded invoke or a null-tested branch ever produces
	// Null in the nullness lattice (Entry seeds this non-null, Copy only
	// propagates), so a method with none of them can never hold a null and
	// checkNullViewDeref skips it without solving.
	c.nullSrc = map[*ir.Method]bool{}
	for _, m := range c.AppMethods() {
		src := false
		ir.WalkStmts(m.Body, func(s ir.Stmt) {
			switch s := s.(type) {
			case *ir.ConstNull:
				src = true
			case *ir.If:
				src = src || nullTest(s.Cond)
			case *ir.While:
				src = src || nullTest(s.Cond)
			case *ir.Invoke:
				if c.emptyHelperCall(s) {
					c.nullSeed[s] = dataflow.NullVal{
						K:   dataflow.Null,
						Why: fmt.Sprintf("%s at %s can never return a view", callName(s), s.At),
					}
				}
				if _, seeded := c.nullSeed[s]; seeded {
					src = true
				}
			}
		})
		if src {
			c.nullSrc[m] = true
		}
	}
}

// nullTest reports whether a branch condition tests a variable against
// null, the only branch along which Nullness introduces Null.
func nullTest(cond ir.Cond) bool { return !cond.Nondet && cond.X != nil }

// emptyHelperCall reports whether an invoke without operation nodes calls a
// view helper (viewHelperCall) whose result is empty at a live receiver.
func (c *Context) emptyHelperCall(inv *ir.Invoke) bool {
	if inv.Dst == nil || inv.Recv == nil || len(c.siteOps[inv]) > 0 {
		return false
	}
	if len(c.Res.VarPointsTo(inv.Dst)) != 0 || len(c.Res.VarPointsTo(inv.Recv)) == 0 {
		return false
	}
	return c.viewHelperCall(inv)
}

// mayHoldNull reports whether a method body contains a null source (see
// buildIndexes). Without one its nullness solution holds no Null anywhere.
func (c *Context) mayHoldNull(m *ir.Method) bool {
	c.buildIndexes()
	return c.nullSrc[m]
}

// helperKey is a call's dispatch key: the declared receiver class and the
// signature key. viewHelperCall depends on nothing else.
type helperKey struct {
	recv *ir.Class
	key  string
}

// viewHelperCall reports whether every dispatch target of a call is a
// modeled application method whose returned values are all modeled
// one-to-one by the constraint graph, and at least one target performs
// find-view operations — the shape of a "find and return a view" helper.
// Only such calls are safe to seed null on an empty result: there an
// empty solution genuinely proves the helper returns nothing, whereas a
// return fed through an unmodeled construct (an opaque platform call, an
// untracked field) leaves the solution empty while the runtime value is
// real.
func (c *Context) viewHelperCall(s *ir.Invoke) bool {
	k := helperKey{s.Recv.TypeClass, s.Key}
	if ok, done := c.helperCalls[k]; done {
		return ok
	}
	if c.helperCalls == nil {
		c.helperCalls = map[helperKey]bool{}
	}
	ok := c.dispatchesToViewHelper(s.Recv.TypeClass, s.Key)
	c.helperCalls[k] = ok
	return ok
}

// dispatchesToViewHelper is viewHelperCall for one dispatch key.
func (c *Context) dispatchesToViewHelper(recv *ir.Class, key string) bool {
	anyCallee, anyFind := false, false
	for _, cls := range c.Res.Prog.Implementers(recv) {
		callee := cls.Dispatch(key)
		if callee == nil {
			continue
		}
		if callee.Body == nil {
			return false // dispatches into unmodeled code
		}
		if !c.returnsModeled(callee) {
			return false // result flows through an unmodeled construct
		}
		anyCallee = true
		for _, op := range c.methOps[callee] {
			switch op.Kind {
			case platform.OpFindView1, platform.OpFindView2, platform.OpFindView3:
				anyFind = true
			}
		}
	}
	return anyCallee && anyFind
}

// returnsModeled reports whether every value a method can return is modeled
// one-to-one by the constraint graph, following copy chains back through
// the body (see varModeled). Emptiness of the method's solved result is
// provable only then. The verdict is memoized per method.
func (c *Context) returnsModeled(m *ir.Method) bool {
	if ok, done := c.retModeled[m]; done {
		return ok
	}
	if c.retModeled == nil {
		c.retModeled = map[*ir.Method]bool{}
	}
	ok := true
	visited := map[*ir.Var]bool{}
	for _, v := range c.defsOf(m).rets {
		if !c.varModeled(m, v, visited) {
			ok = false
			break
		}
	}
	c.retModeled[m] = ok
	return ok
}

// varModeled reports whether every definition of v inside m is one the
// graph models one-to-one (per modeled). Copies recurse into their source:
// modeled holds for a copy regardless of how the source was produced, which
// is sound for FlowsToAt's shrink-only use but not for proving emptiness. A
// variable with no definitions holds its entry value — a parameter or
// receiver binding, which call edges model.
func (c *Context) varModeled(m *ir.Method, v *ir.Var, visited map[*ir.Var]bool) bool {
	if visited[v] {
		return true
	}
	visited[v] = true
	for _, s := range c.defsOf(m).defs[v] {
		if cp, isCopy := s.(*ir.Copy); isCopy {
			if !c.varModeled(m, cp.Src, visited) {
				return false
			}
		} else if !c.modeled(s) {
			return false
		}
	}
	return true
}

func (c *Context) seedForSite(site *ir.Invoke, ops []*graph.OpNode) (dataflow.NullVal, bool) {
	if site.Dst == nil {
		return dataflow.NullVal{}, false
	}
	seen := false
	var why string
	for _, op := range ops {
		switch op.Kind {
		case platform.OpFindView1, platform.OpFindView2, platform.OpFindView3:
		default:
			return dataflow.NullVal{}, false
		}
		if op.Out == nil || len(c.Res.OpReceivers(op)) == 0 {
			// Dead op (receiver never materializes): no conclusion.
			return dataflow.NullVal{}, false
		}
		if op.Kind != platform.OpFindView3 {
			ids := idNames(c.Res.OpArg(op, 0))
			if len(ids) == 0 {
				return dataflow.NullVal{}, false
			}
			why = fmt.Sprintf("findViewById(%s) at %s can never find a view", joinNames(ids), opPos(op))
		} else {
			why = fmt.Sprintf("%s at %s can never retrieve a view", callName(site), opPos(op))
		}
		if len(c.Res.OpResults(op)) != 0 {
			return dataflow.NullVal{}, false
		}
		seen = true
	}
	if !seen {
		return dataflow.NullVal{}, false
	}
	return dataflow.NullVal{K: dataflow.Null, Why: why}, true
}

// Nullness returns the memoized nullness solution of a method, seeded by
// the reference analysis.
func (c *Context) Nullness(m *ir.Method) *dataflow.Result[dataflow.NullFact] {
	if r, ok := c.nullRes[m]; ok {
		return r
	}
	c.buildIndexes()
	r := dataflow.SolveNullness(c.CFG(m), func(s *ir.Invoke) (dataflow.NullVal, bool) {
		v, ok := c.nullSeed[s]
		return v, ok
	})
	c.nullRes[m] = r
	if c.Trace.Enabled() {
		c.Trace.Dataflow(m.String(), int64(r.Visits))
	}
	return r
}

// OpsAt returns the operation nodes materialized for one call site.
func (c *Context) OpsAt(site *ir.Invoke) []*graph.OpNode {
	c.buildIndexes()
	return c.siteOps[site]
}

// OpsIn returns the operation nodes whose containing method is m.
func (c *Context) OpsIn(m *ir.Method) []*graph.OpNode {
	c.buildIndexes()
	return c.methOps[m]
}

// receiverIDs returns the sorted value IDs of an operation's receiver
// solution.
func (c *Context) receiverIDs(op *graph.OpNode) []int {
	vals := c.Res.OpReceivers(op)
	out := make([]int, 0, len(vals))
	for _, v := range vals {
		out = append(out, v.ID())
	}
	sort.Ints(out)
	return out
}

// intersects reports whether two sorted int slices share an element.
func intersects(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
