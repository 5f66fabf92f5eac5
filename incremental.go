package gator

import (
	"errors"
	"sort"
	"time"

	"gator/internal/alite"
	"gator/internal/core"
	"gator/internal/ir"
	"gator/internal/trace"
)

// IncrementalStats describes how an AnalyzeIncremental run was computed.
type IncrementalStats struct {
	// Mode is "warm" when the previous solution was delta-resolved,
	// "scratch" when the analysis fell back to a full solve, or "unchanged"
	// when the inputs were byte-identical to the previous run.
	Mode string
	// Reason explains a scratch fallback; empty otherwise.
	Reason string
	// Retained and Retracted count previous-solution facts that survived
	// the edit and facts whose derivations reached a dirty unit.
	Retained  int
	Retracted int
	// DirtyUnits are the edited compilation units.
	DirtyUnits []string
}

// Incremental reports how this result was computed. For results of Analyze
// the stats are zero; AnalyzeIncremental always fills in Mode.
func (r *Result) Incremental() IncrementalStats { return r.incr }

// Stale reports whether this result has been consumed by a later
// AnalyzeIncremental call that patched the underlying program in place.
// Queries on a stale result are unreliable; see DESIGN.md.
func (r *Result) Stale() bool { return r.invalid }

// ErrStaleResult is returned when a stale result is passed as the previous
// solution.
var ErrStaleResult = errors.New("gator: previous result is stale (already consumed by a later incremental analysis)")

// AnalyzeIncremental re-analyzes an application after an edit, reusing as
// much of prev as the edit allows. sources and layouts are the full post-edit
// input (the same maps Load takes); the edit is discovered by diffing them
// against what prev analyzed. The returned solution is equal to what
// Load+Analyze of the post-edit input computes — every content-ordered query
// (Views, Hierarchy, EventTuples, SARIF, ...) renders byte-identically.
//
// The fast path applies when only method bodies changed in known source
// files: the edited files are re-lowered in place (ir.PatchFile) and the
// solver retracts only facts whose derivation reached an edited file
// (core.AnalyzeIncremental). That path consumes prev — the previous result
// shares the patched program and becomes Stale; passing it again returns
// ErrStaleResult. Any other edit (layout changes, added or removed files,
// declaration-shape changes) rebuilds from scratch, reusing c's parse cache,
// and leaves prev intact.
//
// prev == nil is allowed and performs the initial full analysis, so a watch
// loop can call this uniformly. c may be nil to disable parse caching.
func AnalyzeIncremental(prev *Result, sources, layouts map[string]string, opts Options, c *Cache) (*Result, error) {
	if prev == nil {
		return analyzeFull(nil, sources, layouts, opts, c, "no previous result")
	}
	if prev.invalid {
		return nil, ErrStaleResult
	}
	app := prev.app
	if !mapsEqual(app.layouts, layouts) {
		// Layout linking resolves parsed layouts in place during ir.Build, so
		// there is no patched middle ground for layout edits.
		return analyzeFull(prev, sources, layouts, opts, c, "layouts changed")
	}
	var dirty []string
	for name, src := range sources {
		old, ok := app.sources[name]
		if !ok {
			return analyzeFull(prev, sources, layouts, opts, c, "file set changed")
		}
		if old != src {
			dirty = append(dirty, name)
		}
	}
	if len(sources) != len(app.sources) {
		return analyzeFull(prev, sources, layouts, opts, c, "file set changed")
	}
	if len(dirty) == 0 {
		prev.incr = IncrementalStats{Mode: "unchanged"}
		return prev, nil
	}
	sort.Strings(dirty)

	// Parse the edited files; a declaration-shape change (new method, renamed
	// field, changed hierarchy) invalidates clean-file IR pointers, so only
	// body-confined edits may patch in place.
	files := make([]*alite.File, 0, len(dirty))
	for _, name := range dirty {
		f, err := parseCached(name, sources[name], opts.Trace, c)
		if err != nil {
			return nil, err
		}
		if ir.ShapeSignature(f) != app.shapes[name] {
			return analyzeFull(prev, sources, layouts, opts, c, "declaration shape changed: "+name)
		}
		files = append(files, f)
	}

	// Body-only edit: re-lower the dirty files inside prev's program. This
	// mutates the program prev's facts refer to, so prev is consumed either
	// way — even if patching fails and we fall back to a fresh build.
	start := time.Now()
	prog := app.prog
	prev.invalid = true
	for _, f := range files {
		if err := ir.PatchFile(prog, f); err != nil {
			return analyzeFull(prev, sources, layouts, opts, c, "patch failed: "+err.Error())
		}
	}
	res := core.AnalyzeIncremental(prog, opts, prev.res, dirty)

	newSources := make(map[string]string, len(sources))
	for n, s := range sources {
		newSources[n] = s
	}
	newShapes := make(map[string]string, len(app.shapes))
	for n, s := range app.shapes {
		newShapes[n] = s
	}
	for i, name := range dirty {
		newShapes[name] = ir.ShapeSignature(files[i])
	}
	newApp := &App{Name: app.Name, prog: prog, sources: newSources, layouts: app.layouts, shapes: newShapes}
	return &Result{
		app:     newApp,
		res:     res,
		elapsed: time.Since(start),
		tr:      opts.Trace,
		incr:    IncrementalStats(res.Incr),
	}, nil
}

// analyzeFull is the scratch path: a complete load and solve, still tracking
// unit dependencies so the next edit can go warm, and still sharing c's
// parse cache.
func analyzeFull(prev *Result, sources, layouts map[string]string, opts Options, c *Cache, reason string) (*Result, error) {
	h0, m0 := c.ParseStats()
	app, err := LoadCached(sources, layouts, c)
	if err != nil {
		return nil, err
	}
	if prev != nil {
		app.Name = prev.app.Name
	}
	emitParseProbes(opts.Trace, c, h0, m0)
	opts.Incremental = true
	start := time.Now()
	res := core.Analyze(app.prog, opts)
	return &Result{
		app:     app,
		res:     res,
		elapsed: time.Since(start),
		tr:      opts.Trace,
		incr:    IncrementalStats{Mode: "scratch", Reason: reason},
	}, nil
}

// parseCached parses one source file through the shared cache when present,
// emitting a cache-probe trace event per lookup.
func parseCached(name, src string, tr *trace.Scope, c *Cache) (*alite.File, error) {
	if c == nil {
		return alite.Parse(name, src)
	}
	f, hit, err := c.parse.Parse(name, src)
	if err != nil {
		return nil, err
	}
	tr.CacheProbe("parse", hit)
	return f, nil
}

// emitParseProbes replays the cache's hit/miss delta from a bulk load as
// individual probe events on the trace.
func emitParseProbes(tr *trace.Scope, c *Cache, h0, m0 int64) {
	if c == nil || !tr.Enabled() {
		return
	}
	h1, m1 := c.ParseStats()
	for i := h0; i < h1; i++ {
		tr.CacheProbe("parse", true)
	}
	for i := m0; i < m1; i++ {
		tr.CacheProbe("parse", false)
	}
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
