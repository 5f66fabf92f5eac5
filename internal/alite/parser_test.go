package alite

import (
	"strings"
	"testing"
)

// figure1 is the running example of the paper (Figure 1), transcribed into
// ALite surface syntax.
const figure1 = `
class ConsoleActivity extends Activity {
	ViewFlipper flip;

	View findCurrentView(int a) {
		ViewFlipper b = this.flip;
		View c = b.getCurrentView();
		View d = c.findViewById(a);
		return d;
	}

	void onCreate() {
		this.setContentView(R.layout.act_console);
		View e = this.findViewById(R.id.console_flip);
		ViewFlipper f = (ViewFlipper) e;
		this.flip = f;
		View g = this.findViewById(R.id.button_esc);
		ImageView h = (ImageView) g;
		EscapeButtonListener j = new EscapeButtonListener(this);
		h.setOnClickListener(j);
	}

	void addNewTerminalView(TerminalBridge bridge) {
		LayoutInflater inflater = this.getLayoutInflater();
		View k = inflater.inflate(R.layout.item_terminal);
		RelativeLayout n = (RelativeLayout) k;
		TerminalView m = new TerminalView(bridge);
		m.setId(R.id.console_flip);
		m.addView(n);
		ViewFlipper p = this.flip;
		p.addView(m);
	}
}

class TerminalView extends ViewGroup {
	TerminalBridge bridge;
	TerminalView(TerminalBridge b) { this.bridge = b; }
}

class TerminalBridge {
	TerminalBridge() { }
}

class EscapeButtonListener implements OnClickListener {
	ConsoleActivity cact;

	EscapeButtonListener(ConsoleActivity q) {
		this.cact = q;
	}

	void onClick(View r) {
		ConsoleActivity s = this.cact;
		View t = s.findCurrentView(R.id.console_flip);
		TerminalView v = (TerminalView) t;
	}
}
`

func TestParseFigure1(t *testing.T) {
	f, err := Parse("figure1.alite", figure1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Decls) != 4 {
		t.Fatalf("got %d decls, want 4", len(f.Decls))
	}
	ca, ok := f.Decls[0].(*ClassDecl)
	if !ok || ca.Name != "ConsoleActivity" {
		t.Fatalf("decl 0 = %v", f.Decls[0])
	}
	if ca.Super != "Activity" {
		t.Errorf("super = %q, want Activity", ca.Super)
	}
	if len(ca.Fields) != 1 || ca.Fields[0].Name != "flip" {
		t.Errorf("fields = %v", ca.Fields)
	}
	if len(ca.Methods) != 3 {
		t.Fatalf("got %d methods, want 3", len(ca.Methods))
	}
	ebl := f.Decls[3].(*ClassDecl)
	if len(ebl.Implements) != 1 || ebl.Implements[0] != "OnClickListener" {
		t.Errorf("implements = %v", ebl.Implements)
	}
	var ctor *MethodDecl
	for _, m := range ebl.Methods {
		if m.IsCtor {
			ctor = m
		}
	}
	if ctor == nil {
		t.Fatal("no constructor in EscapeButtonListener")
	}
	if len(ctor.Params) != 1 || ctor.Params[0].Type.Name != "ConsoleActivity" {
		t.Errorf("ctor params = %v", ctor.Params)
	}
}

func TestParseRRef(t *testing.T) {
	f, err := Parse("t", `class A { void m() { int x = R.layout.main; int y = R.id.button; } }`)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Decls[0].(*ClassDecl).Methods[0].Body
	x := body.Stmts[0].(*LocalDecl).Init.(*RRefExpr)
	if !x.Layout || x.Name != "main" {
		t.Errorf("x = %+v", x)
	}
	y := body.Stmts[1].(*LocalDecl).Init.(*RRefExpr)
	if y.Layout || y.Name != "button" {
		t.Errorf("y = %+v", y)
	}
}

func TestParseCastVsGrouping(t *testing.T) {
	f, err := Parse("t", `class A { void m(View v) { Button b = (Button) v; View w = (v); } }`)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Decls[0].(*ClassDecl).Methods[0].Body
	c, ok := body.Stmts[0].(*LocalDecl).Init.(*CastExpr)
	if !ok {
		t.Fatalf("stmt 0 init is %T, want cast", body.Stmts[0].(*LocalDecl).Init)
	}
	if c.Type.Name != "Button" {
		t.Errorf("cast type = %s", c.Type)
	}
	if _, ok := body.Stmts[1].(*LocalDecl).Init.(*VarExpr); !ok {
		t.Errorf("stmt 1 init is %T, want grouped var", body.Stmts[1].(*LocalDecl).Init)
	}
}

func TestParseChainedCalls(t *testing.T) {
	f, err := Parse("t", `class A { View m(View v, int i) { return v.findFocus().findViewById(i); } }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := f.Decls[0].(*ClassDecl).Methods[0].Body.Stmts[0].(*ReturnStmt)
	outer, ok := ret.Value.(*CallExpr)
	if !ok || outer.Name != "findViewById" {
		t.Fatalf("outer = %v", ret.Value)
	}
	inner, ok := outer.Base.(*CallExpr)
	if !ok || inner.Name != "findFocus" {
		t.Fatalf("inner = %v", outer.Base)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
class A {
	void m(View v) {
		if (*) {
			v.setId(1);
		} else {
			v.setId(2);
		}
		while (v != null) {
			v.findFocus();
		}
		if (v == null) { return; }
	}
}`
	f, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Decls[0].(*ClassDecl).Methods[0].Body
	ifs := body.Stmts[0].(*IfStmt)
	if !ifs.Cond.Nondet || ifs.Else == nil {
		t.Errorf("if = %+v", ifs)
	}
	ws := body.Stmts[1].(*WhileStmt)
	if ws.Cond.Nondet || !ws.Cond.Negated {
		t.Errorf("while cond = %+v", ws.Cond)
	}
	ifn := body.Stmts[2].(*IfStmt)
	if ifn.Cond.Negated || ifn.Cond.Nondet {
		t.Errorf("null test cond = %+v", ifn.Cond)
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `class A { void m(View v) { if (*) { v.setId(1); } else if (*) { v.setId(2); } } }`
	f, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	ifs := f.Decls[0].(*ClassDecl).Methods[0].Body.Stmts[0].(*IfStmt)
	if ifs.Else == nil || len(ifs.Else.Stmts) != 1 {
		t.Fatalf("else = %+v", ifs.Else)
	}
	if _, ok := ifs.Else.Stmts[0].(*IfStmt); !ok {
		t.Errorf("else body is %T, want nested if", ifs.Else.Stmts[0])
	}
}

func TestParseInterfaceDecl(t *testing.T) {
	src := `
interface Command extends OnClickListener {
	void run(View target);
	int priority();
}`
	f, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Decls[0].(*InterfaceDecl)
	if d.Name != "Command" || len(d.Extends) != 1 || len(d.Methods) != 2 {
		t.Fatalf("iface = %+v", d)
	}
	if d.Methods[1].Return.Prim != TypeInt {
		t.Errorf("priority return = %v", d.Methods[1].Return)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"class {",                               // missing name
		"class A extends { }",                   // missing super
		"class A { void m() { x = ; } }",        // missing rhs
		"class A { void m() { 3; } }",           // non-call expr stmt
		"class A { void m() { v.f = new; } }",   // bad new
		"class A { void m() { if (v) { } } }",   // bad condition
		"class A { void m() { R.menu.x; } }",    // bad R section
		"class A { int m() { return 1 } }",      // missing semicolon
		"banana",                                // not a decl
		"class A { void m() { this = null; } }", // assign to this...
	}
	for _, src := range cases {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("Parse(%q): want error, got none", src)
		}
	}
}

func TestParserRecoversAndReportsAll(t *testing.T) {
	src := `class A { void m() { x = ; } void n() { y = ; } }`
	_, err := Parse("t", src)
	if err == nil {
		t.Fatal("want errors")
	}
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("err is %T", err)
	}
	if len(el) < 2 {
		t.Errorf("got %d errors, want >= 2: %v", len(el), el)
	}
}

func TestPrintRoundTrip(t *testing.T) {
	f, err := Parse("figure1.alite", figure1)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(f)
	f2, err := Parse("printed.alite", printed)
	if err != nil {
		t.Fatalf("reparse of printed output failed: %v\n%s", err, printed)
	}
	printed2 := Print(f2)
	if printed != printed2 {
		t.Errorf("print is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
	if !strings.Contains(printed, "R.layout.act_console") {
		t.Errorf("printed output lost R reference:\n%s", printed)
	}
}

func TestParseClassLiteral(t *testing.T) {
	src := `class A extends Activity { void m() { Intent i = new Intent(B.class); } } class B extends Activity { }`
	f, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	init := f.Decls[0].(*ClassDecl).Methods[0].Body.Stmts[0].(*LocalDecl).Init
	ne, ok := init.(*NewExpr)
	if !ok || len(ne.Args) != 1 {
		t.Fatalf("init = %v", init)
	}
	cl, ok := ne.Args[0].(*ClassLitExpr)
	if !ok || cl.Name != "B" {
		t.Fatalf("arg = %v", ne.Args[0])
	}
	// Printing round-trips the literal.
	printed := Print(f)
	if !strings.Contains(printed, "B.class") {
		t.Errorf("printed output lost class literal:\n%s", printed)
	}
	if _, err := Parse("p", printed); err != nil {
		t.Errorf("reparse failed: %v", err)
	}
}

func TestParseClassLiteralErrors(t *testing.T) {
	for _, src := range []string{
		`class A { void m() { Intent i = new Intent(this.class); } }`,
		`class A { View f; void m() { Intent i = new Intent(this.f.class); } }`,
	} {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("t", "class {")
}

// TestParseNestingBound: input nested past maxNesting, down to the
// 2,000,000-deep parenthesized body (about 4 MB, well under gatord's
// request limit) that used to overflow the goroutine stack, yields one
// positioned ErrorList error instead of a crash; nesting well inside the
// bound still parses.
func TestParseNestingBound(t *testing.T) {
	method := func(body string) string { return "class A {\n void m() { " + body + " }\n}" }
	over := maxNesting + 1
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"parens-2e6", method("x = " + strings.Repeat("(", 2000000) + "y" + strings.Repeat(")", 2000000) + ";")},
		{"casts", method("x = " + strings.Repeat("(A) ", over) + "y;")},
		{"call-args", method("x = " + strings.Repeat("f.g(", over) + "y" + strings.Repeat(")", over) + ";")},
		{"selectors", method("x = y" + strings.Repeat(".f", over) + ";")},
		{"if-blocks", method(strings.Repeat("if (*) { ", over) + strings.Repeat("} ", over))},
		{"else-if-chain", method("if (*) { }" + strings.Repeat(" else if (*) { }", over))},
	} {
		_, err := Parse("deep.alite", tc.src)
		el, ok := err.(ErrorList)
		if !ok || len(el) != 1 {
			t.Errorf("%s: err = %v, want one ErrorList entry", tc.name, err)
			continue
		}
		if e := el[0]; !strings.Contains(e.Msg, "nesting exceeds") || e.Pos.Line != 2 || e.Pos.Col == 0 {
			t.Errorf("%s: error %q at %v, want a positioned nesting error on line 2", tc.name, e.Msg, e.Pos)
		}
	}

	const ok = 200
	for _, src := range []string{
		method("x = " + strings.Repeat("(", ok) + "y" + strings.Repeat(")", ok) + ";"),
		method(strings.Repeat("if (*) { ", ok) + strings.Repeat("} ", ok)),
		method("x = y" + strings.Repeat(".f", ok) + ";"),
	} {
		if _, err := Parse("ok.alite", src); err != nil {
			t.Errorf("nesting %d rejected: %v", ok, err)
		}
	}
}
