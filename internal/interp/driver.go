package interp

import (
	"sort"

	"gator/internal/ir"
	"gator/internal/platform"
)

// Run explores the program: the platform implicitly creates every activity
// and drives it through its lifecycle callbacks, then a bounded event loop
// fires the registered GUI event handlers. Returns the recorded
// observations; the run ends early (without error) when the step budget is
// exhausted.
func (in *Interp) Run() (obs *Observations) {
	obs = in.obs
	defer func() {
		if r := recover(); r != nil && r != errBudget {
			panic(r)
		}
	}()

	// Implicit activity creation (rule: t := new a; t.onCreate(); ...).
	for _, c := range in.prog.AppClasses() {
		if c.IsInterface || !in.prog.IsActivityClass(c) {
			continue
		}
		act := in.newObject(c, Tag{Kind: TagActivity, Class: c})
		in.activities = append(in.activities, act)
		in.bootActivity(act)
	}

	for round := 0; round < in.cfg.EventRounds; round++ {
		in.fireEvents()
	}

	// Wind the activities down.
	for _, act := range in.activities {
		for _, name := range []string{"onPause", "onStop", "onDestroy"} {
			in.invokeCallback(act, name)
		}
	}
	return in.obs
}

// Observations returns the record so far (useful after an early stop).
func (in *Interp) Observations() *Observations { return in.obs }

// bootActivity runs the creation lifecycle and menu-population callback of
// an activity instance.
func (in *Interp) bootActivity(act *Object) {
	in.runLifecycle(act, false)
	m := act.Class.Dispatch(platform.MenuCreateCallback + "(R)")
	if m == nil || m.Body == nil || len(m.Params) != 1 {
		return
	}
	menu := in.newObject(in.prog.Class("Menu"), Tag{Kind: TagMenu, Class: act.Class})
	act.Menu = menu
	in.protect(func() { in.call(m, act, []Value{RefVal(menu)}) })
}

// runLifecycle drives creation-time callbacks on an activity or dialog.
func (in *Interp) runLifecycle(obj *Object, dialog bool) {
	names := platform.Lifecycle[:4] // onCreate, onStart, onRestart, onResume
	if dialog {
		names = platform.DialogLifecycle
	}
	for _, name := range names {
		in.invokeCallback(obj, name)
	}
}

// invokeCallback calls an app-defined zero-argument callback, trapping
// runtime errors so one failing callback does not end the exploration.
func (in *Interp) invokeCallback(obj *Object, name string) {
	m := obj.Class.Dispatch(ir.MethodKey(name, nil))
	if m == nil || m.Body == nil {
		return
	}
	in.protect(func() { in.call(m, obj, nil) })
}

// protect runs one driver action, recovering from traps.
func (in *Interp) protect(action func()) {
	defer func() {
		if r := recover(); r != nil && r != errTrap {
			panic(r)
		}
	}()
	action()
}

// fireEvents dispatches one round of GUI events: every registered
// (view, listener) pair's handlers, plus declarative android:onClick
// handlers on content views.
func (in *Interp) fireEvents() {
	// Snapshot the current (view, event, listener) triples; handlers may
	// register more listeners while running.
	type firing struct {
		view  *Object
		event string
		lst   *Object
	}
	var firings []firing
	views := in.liveViews()
	for _, v := range views {
		var events []string
		for e := range v.listeners {
			events = append(events, e)
		}
		sort.Strings(events)
		for _, e := range events {
			for _, lst := range v.Listeners(e) {
				firings = append(firings, firing{v, e, lst})
			}
		}
	}
	for _, f := range firings {
		spec, ok := platform.ListenerByEvent(f.event)
		if !ok {
			continue
		}
		for _, h := range spec.Handlers {
			m := f.lst.Class.Dispatch(ir.HandlerKey(h))
			if m == nil || m.Body == nil {
				continue
			}
			args := make([]Value, len(h.Params))
			for i, pn := range h.Params {
				if pn == "int" {
					args[i] = IntVal(0)
				} else {
					args[i] = Null
				}
			}
			for _, vi := range h.ViewParams {
				if vi < len(args) {
					args[vi] = RefVal(f.view)
				}
			}
			lst, m := f.lst, m
			in.protect(func() { in.call(m, lst, args) })
		}
	}

	// Adapter population: the platform asks each bound adapter for item
	// views and attaches them to the AdapterView.
	for _, v := range views {
		if v.Adapter == nil {
			continue
		}
		m := v.Adapter.Class.Dispatch("getView(I)")
		if m == nil || m.Body == nil {
			continue
		}
		v, m := v, m
		in.protect(func() {
			for k := 0; k < 2; k++ {
				res := in.call(m, v.Adapter, []Value{IntVal(k)})
				if res.Obj != nil && in.prog.IsViewClass(res.Obj.Class) && !v.IsDescendantOf(res.Obj) {
					if res.Obj.Parent == nil || res.Obj.Parent != v {
						in.attachChild(v, res.Obj)
						in.obs.ChildPairs[[2]Tag{v.Tag, res.Obj.Tag}] = true
					}
				}
			}
		})
	}

	// Options-menu selections: every added item fires the activity's
	// onOptionsItemSelected.
	for _, act := range append([]*Object{}, in.activities...) {
		if act.Menu == nil {
			continue
		}
		h := act.Class.Dispatch(platform.MenuSelectCallback + "(R)")
		if h == nil || h.Body == nil || len(h.Params) != 1 {
			continue
		}
		for _, item := range append([]*Object{}, act.Menu.MenuItems...) {
			act, h, item := act, h, item
			in.protect(func() { in.call(h, act, []Value{RefVal(item)}) })
		}
	}

	// Declarative onClick: views in an owner's content tree dispatch to the
	// owner's handler method.
	owners := append(append([]*Object{}, in.activities...), in.dialogs...)
	for _, owner := range owners {
		if owner.ContentRoot == nil {
			continue
		}
		for _, w := range owner.ContentRoot.Subtree() {
			if w.OnClick == "" {
				continue
			}
			m := owner.Class.Dispatch(w.OnClick + "(R)")
			if m == nil || m.Body == nil || len(m.Params) != 1 {
				continue
			}
			owner, m, w := owner, m, w
			in.protect(func() { in.call(m, owner, []Value{RefVal(w)}) })
		}
	}
}

// liveViews collects the view objects reachable from activity and dialog
// content roots, plus any view holding listeners reachable from fields of
// live objects. For simplicity and coverage, it scans all created objects.
func (in *Interp) liveViews() []*Object {
	seen := map[*Object]bool{}
	var out []*Object
	var visit func(o *Object)
	visit = func(o *Object) {
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		if in.prog.IsViewClass(o.Class) {
			out = append(out, o)
		}
		for _, c := range o.Children {
			visit(c)
		}
		visit(o.ContentRoot)
		// Follow reference fields.
		var fields []*ir.Field
		for f := range o.fields {
			fields = append(fields, f)
		}
		sort.Slice(fields, func(i, j int) bool { return fields[i].Sig() < fields[j].Sig() })
		for _, f := range fields {
			if v := o.GetField(f); v.Obj != nil {
				visit(v.Obj)
			}
		}
		// Follow registered listeners (they may hold more views).
		var events []string
		for e := range o.listeners {
			events = append(events, e)
		}
		sort.Strings(events)
		for _, e := range events {
			for _, l := range o.listeners[e] {
				visit(l)
			}
		}
	}
	for _, a := range in.activities {
		visit(a)
	}
	for _, d := range in.dialogs {
		visit(d)
	}
	return out
}
