package main

import (
	"testing"
	"time"

	"gator/internal/trace"
)

func msec(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// op [0,100] has load [10,30] and analyze [30,90]; analyze has solve
	// [40,80] with a nested fixpoint child [50,60].
	spans := []span{
		{ID: 1, Name: "op", Start: msec(0), End: msec(100)},
		{ID: 2, Parent: 1, Name: "load", Start: msec(10), End: msec(30)},
		{ID: 3, Parent: 1, Name: "analyze", Start: msec(30), End: msec(90)},
		{ID: 4, Parent: 3, Name: "solve", Start: msec(40), End: msec(80)},
		{ID: 5, Parent: 4, Name: "round", Start: msec(50), End: msec(60)},
	}
	st := selfTimes(spans)
	want := map[string][2]int{ // name → {self, inclusive} in ms
		"op": {20, 100}, "load": {20, 20}, "analyze": {20, 60}, "solve": {30, 40}, "round": {10, 10},
	}
	var selfSum time.Duration
	for name, w := range want {
		got := st[name]
		if got == nil || got.Self != msec(w[0]) || got.Total != msec(w[1]) || got.Calls != 1 {
			t.Errorf("%s: got %+v, want self %dms, inclusive %dms", name, got, w[0], w[1])
			continue
		}
		selfSum += got.Self
	}
	// Serially nested spans: self times add up to the root's wall time.
	if selfSum != msec(100) {
		t.Errorf("self times sum to %v, want the op's 100ms", selfSum)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// Two worker lanes run in parallel under one batch span; their overlap
	// covers the batch once, and child parts outside the parent are clipped.
	spans := []span{
		{ID: 1, Name: "batch", Start: msec(0), End: msec(100)},
		{ID: 2, Parent: 1, Lane: 1, Name: "app", Start: msec(0), End: msec(60)},
		{ID: 3, Parent: 1, Lane: 2, Name: "app", Start: msec(20), End: msec(70)},
		{ID: 4, Parent: 1, Lane: 1, Name: "app", Start: msec(80), End: msec(120)},
	}
	st := selfTimes(spans)
	if got := st["batch"].Self; got != msec(10) {
		t.Errorf("batch self = %v, want 10ms (only [70,80] uncovered)", got)
	}
	if got := st["app"]; got.Calls != 3 || got.Self != msec(150) {
		t.Errorf("app = %+v, want 3 calls and 150ms self", got)
	}
}

func TestPhaseSpansPairAndAdopt(t *testing.T) {
	ev := func(k trace.Kind, name string, at int) trace.Event {
		return trace.Event{Kind: k, App: "a", Name: name, TS: msec(at)}
	}
	events := []trace.Event{
		ev(trace.KindPhaseBegin, "build", 1),
		ev(trace.KindPhaseEnd, "build", 3),
		ev(trace.KindPhaseBegin, "solve", 3),
		{Kind: trace.KindIteration, App: "a", Name: "worklist", N: 4, TS: msec(4)},
		ev(trace.KindPhaseEnd, "solve", 8),
		ev(trace.KindPhaseBegin, "check:null-view-deref", 9),
		ev(trace.KindPhaseEnd, "check:null-view-deref", 12),
	}
	spans, apps := phaseSpans(events, msec(100))
	if len(spans) != 3 || apps[0] != "a" {
		t.Fatalf("got %d spans (%v), want 3 for app a", len(spans), spans)
	}
	if s := spans[2]; s.Name != "checks.null-view-deref" || s.Start != msec(109) || s.End != msec(112) {
		t.Errorf("check span = %+v, want checks.null-view-deref at [109ms,112ms]", s)
	}

	r := newRecorder()
	analyze := span{Name: "gator.analyze", Op: 7, Lane: 2, Start: msec(100), End: msec(108)}
	analyze.ID = r.add(analyze)
	check := span{Name: "gator.check", Op: 7, Lane: 0, Start: msec(108), End: msec(113)}
	check.ID = r.add(check)
	if dropped := adopt(r, spans, []span{analyze, check}); dropped != 0 {
		t.Fatalf("dropped %d spans, want 0", dropped)
	}
	for _, s := range r.snapshot()[2:] {
		want := analyze.ID
		if s.Name == "checks.null-view-deref" {
			want = check.ID
		}
		if s.Parent != want || s.Op != 7 {
			t.Errorf("%s: parent %d op %d, want parent %d op 7", s.Name, s.Parent, s.Op, want)
		}
	}
}

func TestChromeEventsNestPerLane(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: msec(0), End: msec(10)},
		{ID: 2, Parent: 1, Name: "gator.load", Start: msec(0), End: msec(4)},
		{ID: 3, Parent: 1, Name: "gator.analyze", Start: msec(4), End: msec(10)},
	}
	var stack []string
	for _, ev := range chromeEvents(spans) {
		switch ev.Kind {
		case trace.KindPhaseBegin:
			stack = append(stack, ev.Name)
		case trace.KindPhaseEnd:
			if len(stack) == 0 || stack[len(stack)-1] != ev.Name {
				t.Fatalf("end of %s does not close the innermost open span (open: %v)", ev.Name, stack)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		t.Errorf("spans left open: %v", stack)
	}
}
