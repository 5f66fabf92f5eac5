package main

// In-memory spans for the traced run. The benchmark records one span at
// each layer boundary it calls (its own files, around the public calls),
// merges in the phase spans the program already emits through
// gator.Options.Trace, and at the end computes each layer's self time:
// its span's duration minus the part of it that child spans cover.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"gator/internal/trace"
)

// span is one timed interval. Times are offsets from the recorder's origin.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Op     int // the operation the span belongs to
	Lane   int // 0 is the driving goroutine; batch workers and clients get their own
	Name   string
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps every span of a traced phase until the phase ends.
type recorder struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	dropped int // program spans no benchmark span contained
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// now is the current offset from the origin.
func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// clock lets a program tracer stamp its events on the recorder's timeline.
func (r *recorder) clock() trace.Clock { return r.now }

// add stores a span and returns its id (ids start at 1).
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// programLayer maps a phase name the program emits to this benchmark's
// layer name: core's build/solve/retract/rebuild phases, the batch's load
// phase, and the checker driver's check:<id> phases.
func programLayer(phase string) string {
	switch phase {
	case "build", "solve", "retract", "rebuild":
		return "core." + phase
	case "load":
		return "gator.load"
	}
	if id, ok := strings.CutPrefix(phase, "check:"); ok {
		return "checks." + id
	}
	return "program." + phase
}

// phaseSpans pairs the program's phase-begin/phase-end events into spans
// (per app and worker, innermost first), shifted by offset onto the
// recorder's timeline. The spans carry no ids or parents yet.
func phaseSpans(events []trace.Event, offset time.Duration) (out []span, app []string) {
	type key struct {
		app    string
		worker int
		name   string
	}
	open := map[key][]time.Duration{}
	for _, ev := range events {
		k := key{ev.App, ev.Worker, ev.Name}
		switch ev.Kind {
		case trace.KindPhaseBegin:
			open[k] = append(open[k], ev.TS)
		case trace.KindPhaseEnd:
			st := open[k]
			if len(st) == 0 {
				continue
			}
			begin := st[len(st)-1]
			open[k] = st[:len(st)-1]
			out = append(out, span{Name: programLayer(ev.Name), Lane: ev.Worker, Start: begin + offset, End: ev.TS + offset})
			app = append(app, ev.App)
		}
	}
	return out, app
}

// adopt gives each orphan span the innermost candidate parent that contains
// it in time, taking the parent's op and lane. Candidates are the spans
// eligible to be parents (for one app, or one request). Orphans no
// candidate contains are dropped and counted in the recorder.
func adopt(r *recorder, orphans []span, candidates []span) (dropped int) {
	for _, o := range orphans {
		best := -1
		for i, c := range candidates {
			if c.Start <= o.Start && o.End <= c.End && (best < 0 || candidates[best].dur() > c.dur()) {
				best = i
			}
		}
		if best < 0 {
			dropped++
			continue
		}
		p := candidates[best]
		o.Parent, o.Op, o.Lane = p.ID, p.Op, p.Lane
		r.add(o)
	}
	r.mu.Lock()
	r.dropped += dropped
	r.mu.Unlock()
	return dropped
}

// layerStat is one span name's accumulated time.
type layerStat struct {
	Name  string
	Calls int
	Total time.Duration // inclusive span time
	Self  time.Duration // span time not covered by child spans
}

// selfTimes computes per-name inclusive and self time. A span's self time
// is its duration minus the length of the union of its children's
// intervals, clipped to the span; children on parallel lanes that overlap
// are counted once.
func selfTimes(spans []span) map[string]*layerStat {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Calls++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]time.Duration{max(k.Start, parent.Start), min(k.End, parent.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	end := parent.Start // everything before end is counted
	for _, x := range iv {
		if a := max(x[0], end); x[1] > a {
			total += x[1] - a
			end = x[1]
		}
	}
	return total
}

// writeSelfTable renders the traced-run table: one row per layer with its
// self and inclusive time per op, call count per op, and share of all
// self time, then the unattributed remainder (self time of the root op
// spans) as a share of op wall time.
func writeSelfTable(w io.Writer, workload string, stats map[string]*layerStat, ops, dropped int) {
	var names []string
	var selfSum time.Duration
	for n, st := range stats {
		names = append(names, n)
		selfSum += st.Self
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := stats[names[i]], stats[names[j]]
		if a.Self != b.Self {
			return a.Self > b.Self
		}
		return a.Name < b.Name
	})
	per := func(d time.Duration) float64 { return ms(d) / float64(max(ops, 1)) }
	fmt.Fprintf(w, "traced self time per op, workload %s, %d ops\n", workload, ops)
	fmt.Fprintf(w, "%-44s %10s %10s %9s %7s\n", "layer", "self_ms", "incl_ms", "calls", "share")
	for _, n := range names {
		st := stats[n]
		share := 0.0
		if selfSum > 0 {
			share = 100 * float64(st.Self) / float64(selfSum)
		}
		fmt.Fprintf(w, "%-44s %10.3f %10.3f %9.1f %6.1f%%\n", n, per(st.Self), per(st.Total),
			float64(st.Calls)/float64(max(ops, 1)), share)
	}
	if op := stats["op"]; op != nil && op.Total > 0 {
		fmt.Fprintf(w, "op wall %.3f ms; lane time (sum of self) %.3f ms; unattributed %.2f%% of op wall\n",
			per(op.Total), per(selfSum), 100*float64(op.Self)/float64(op.Total))
	}
	if dropped > 0 {
		fmt.Fprintf(w, "%d program spans fell outside every benchmark span and are not in the table\n", dropped)
	}
}

// chromeEvents renders spans as phase events for trace.WriteChrome: one
// lane per span lane, each event labelled with its op.
func chromeEvents(spans []span) []trace.Event {
	type stamped struct {
		ev    trace.Event
		begin bool
		other time.Duration // the span's other end, for ordering ties
	}
	var evs []stamped
	for _, s := range spans {
		app := fmt.Sprintf("op%d", s.Op)
		evs = append(evs,
			stamped{trace.Event{Kind: trace.KindPhaseBegin, App: app, Worker: s.Lane, Name: s.Name, TS: s.Start}, true, s.End},
			stamped{trace.Event{Kind: trace.KindPhaseEnd, App: app, Worker: s.Lane, Name: s.Name, TS: s.End}, false, s.Start})
	}
	// At equal timestamps, ends come before begins; an inner span (later
	// start) ends first, and an outer span (later end) begins first.
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.ev.TS != b.ev.TS {
			return a.ev.TS < b.ev.TS
		}
		if a.begin != b.begin {
			return !a.begin
		}
		return a.other > b.other
	})
	out := make([]trace.Event, len(evs))
	for i, e := range evs {
		out[i] = e.ev
	}
	return out
}
