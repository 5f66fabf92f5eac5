package ir

import (
	"strings"
	"testing"

	"gator/internal/platform"
)

// TestDefUses pins the def/use sets of the lowered statement forms — the
// contract the dataflow layer (internal/dataflow) builds gen/kill sets on.
func TestDefUses(t *testing.T) {
	src := `
class H implements OnClickListener {
	void onClick(View v) { }
}
class A extends Activity {
	View keep;
	void onCreate() {
		this.setContentView(R.layout.main);
		View v = this.findViewById(R.id.x);
		this.keep = v;
		View w = this.keep;
		if (w != null) {
			H h = new H();
			w.setOnClickListener(h);
		}
	}
}`
	p := buildSrc(t, src, map[string]string{
		"main": `<LinearLayout><Button android:id="@+id/x"/></LinearLayout>`,
	})
	m := p.Class("A").Dispatch("onCreate()")
	if m == nil {
		t.Fatal("no onCreate")
	}
	defs := map[string]bool{}
	var sawStore, sawIf, sawInvokeUse bool
	WalkStmts(m.Body, func(s Stmt) {
		if v := Def(s); v != nil {
			defs[v.Name] = true
		}
		switch s := s.(type) {
		case *Store:
			sawStore = true
			if Def(s) != nil {
				t.Errorf("Store defines %v", Def(s))
			}
			us := Uses(s)
			if len(us) != 2 || us[0] != s.Base || us[1] != s.Src {
				t.Errorf("Store uses = %v", us)
			}
		case *If:
			sawIf = true
			us := Uses(s)
			if len(us) != 1 || us[0].Name != "w" {
				t.Errorf("If uses = %v", us)
			}
		case *Invoke:
			if s.Dst == nil && len(s.Args) == 1 {
				sawInvokeUse = true
				us := Uses(s)
				if len(us) != 2 || us[0] != s.Recv || us[1] != s.Args[0] {
					t.Errorf("Invoke uses = %v", us)
				}
			}
		}
	})
	for _, want := range []string{"v", "w", "h"} {
		if !defs[want] {
			t.Errorf("no def of %s seen (defs: %v)", want, defs)
		}
	}
	if !sawStore || !sawIf || !sawInvokeUse {
		t.Errorf("statement forms missed: store=%v if=%v invoke=%v", sawStore, sawIf, sawInvokeUse)
	}
}

// TestHandlerKey holds the one handler-key derivation to the way Build
// declares each handler on its platform listener interface: the key must
// find the declared method for every handler of every listener.
func TestHandlerKey(t *testing.T) {
	p := buildSrc(t, `class A extends Activity { }`, nil)
	for _, l := range platform.Listeners() {
		iface := p.Class(l.Interface)
		if iface == nil {
			t.Fatalf("no listener interface %s", l.Interface)
		}
		for _, h := range l.Handlers {
			m := iface.Methods[HandlerKey(h)]
			if m == nil {
				t.Errorf("%s: no method under key %s", l.Interface, HandlerKey(h))
				continue
			}
			if m.Name != h.Name {
				t.Errorf("%s: key %s finds %s, want %s", l.Interface, HandlerKey(h), m.Name, h.Name)
			}
		}
	}
}

// TestImplementers pins the receiver population of class-hierarchy
// dispatch: concrete application subtypes only, through extends and
// implements edges, in name order.
func TestImplementers(t *testing.T) {
	p := buildSrc(t, `
interface I { void m(); }
interface J extends I { }
class C extends B { }
class B implements J { void m() { } }
class D { }
class V extends Button { }`, nil)
	names := func(cs []*Class) string {
		var out []string
		for _, c := range cs {
			out = append(out, c.Name)
		}
		return strings.Join(out, ",")
	}
	cases := []struct{ decl, want string }{
		{"I", "B,C"},
		{"J", "B,C"},
		{"B", "B,C"},
		{"C", "C"},
		{"View", "V"},
	}
	for _, c := range cases {
		if got := names(p.Implementers(p.Class(c.decl))); got != c.want {
			t.Errorf("Implementers(%s) = %s, want %s", c.decl, got, c.want)
		}
	}
	if got := p.Implementers(nil); got != nil {
		t.Errorf("Implementers(nil) = %v", got)
	}
}
