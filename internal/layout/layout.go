// Package layout parses Android layout XML definitions and assigns resource
// ids, reproducing the declarative-GUI substrate of the paper: a layout
// definition is a rooted tree of (view class, optional view id) nodes, each
// layout file has a generated R.layout constant, and each view id name has a
// generated R.id constant.
//
// Supported Android layout features: nested view elements, android:id
// ("@+id/name" and "@id/name"), <include layout="@layout/name"/> splicing,
// <merge> roots (transparent containers), and the android:onClick attribute
// (declarative click handlers).
package layout

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Node is one view element in a layout definition.
type Node struct {
	// Class is the view class name (e.g. "RelativeLayout", "ImageView").
	Class string
	// ID is the view id name from android:id, or "" when absent.
	ID string
	// OnClick is the handler method name from android:onClick, or "".
	OnClick string
	// Include names a layout to splice in place of this node (from
	// <include layout="@layout/name"/>); resolved by Link.
	Include string
	// Merge marks a <merge> root, whose children attach directly to the
	// inflation parent.
	Merge bool
	// Children are the nested view elements.
	Children []*Node
}

// Count returns the number of view nodes in the subtree, excluding
// merge/include pseudo-nodes.
func (n *Node) Count() int {
	c := 0
	if !n.Merge && n.Include == "" {
		c = 1
	}
	for _, ch := range n.Children {
		c += ch.Count()
	}
	return c
}

// Walk visits every non-pseudo node in the subtree in preorder.
func (n *Node) Walk(visit func(*Node)) {
	if !n.Merge && n.Include == "" {
		visit(n)
	}
	for _, ch := range n.Children {
		ch.Walk(visit)
	}
}

// Layout is one parsed layout definition.
type Layout struct {
	// Name is the layout name (the file base name without extension).
	Name string
	// Root is the root view element.
	Root *Node
}

// IDNames returns the sorted set of view id names used in the layout.
func (l *Layout) IDNames() []string {
	seen := map[string]bool{}
	l.Root.Walk(func(n *Node) {
		if n.ID != "" {
			seen[n.ID] = true
		}
	})
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Parse reads one layout XML document. name is the layout name.
func Parse(name, src string) (*Layout, error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("layout %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n, err := elementNode(name, t)
			if err != nil {
				return nil, err
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("layout %s: multiple root elements", name)
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("layout %s: unbalanced end element", name)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("layout %s: no root element", name)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("layout %s: unclosed elements", name)
	}
	if err := validate(name, root, true); err != nil {
		return nil, err
	}
	return &Layout{Name: name, Root: root}, nil
}

// MustParse is Parse that panics on error; for embedded corpora and tests.
func MustParse(name, src string) *Layout {
	l, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return l
}

func elementNode(layout string, t xml.StartElement) (*Node, error) {
	n := &Node{Class: localName(t.Name)}
	switch n.Class {
	case "merge":
		n.Merge = true
	case "include":
		n.Include = "?" // filled from the layout attribute below
	default:
		if !validClassName(n.Class) {
			return nil, fmt.Errorf("layout %s: bad view class name %q", layout, n.Class)
		}
	}
	for _, a := range t.Attr {
		switch localName(a.Name) {
		case "id":
			id, err := parseIDRef(a.Value)
			if err != nil {
				return nil, fmt.Errorf("layout %s: %w", layout, err)
			}
			n.ID = id
		case "onClick":
			if !validIdent(a.Value) {
				return nil, fmt.Errorf("layout %s: bad onClick handler name %q", layout, a.Value)
			}
			n.OnClick = a.Value
		case "layout":
			if n.Include != "" {
				ref, ok := strings.CutPrefix(a.Value, "@layout/")
				if !ok {
					return nil, fmt.Errorf("layout %s: bad include reference %q", layout, a.Value)
				}
				n.Include = ref
			}
		}
	}
	if n.Include == "?" {
		return nil, fmt.Errorf("layout %s: <include> without layout attribute", layout)
	}
	return n, nil
}

func validate(layout string, n *Node, isRoot bool) error {
	if n.Merge && !isRoot {
		return fmt.Errorf("layout %s: <merge> must be the root element", layout)
	}
	if n.Include != "" && len(n.Children) > 0 {
		return fmt.Errorf("layout %s: <include> cannot have children", layout)
	}
	if n.Include != "" && isRoot {
		return fmt.Errorf("layout %s: <include> cannot be the root element", layout)
	}
	for _, ch := range n.Children {
		if err := validate(layout, ch, false); err != nil {
			return err
		}
	}
	return nil
}

func localName(n xml.Name) string {
	if i := strings.LastIndex(n.Local, ":"); i >= 0 {
		return n.Local[i+1:]
	}
	return n.Local
}

// parseIDRef parses "@+id/name" or "@id/name".
func parseIDRef(v string) (string, error) {
	for _, prefix := range []string{"@+id/", "@id/"} {
		if name, ok := strings.CutPrefix(v, prefix); ok {
			if !validIdent(name) {
				return "", fmt.Errorf("bad view id name in %q", v)
			}
			return name, nil
		}
	}
	return "", fmt.Errorf("bad view id reference %q (want @+id/name)", v)
}

// validIdent reports whether s is a Java-style identifier — the form view
// id names and onClick handler names take. Constraining names here keeps
// every accepted layout renderable (Render ∘ Parse round-trips) and every
// name usable as an R constant.
func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validClassName is validIdent extended with interior dots, for qualified
// view classes such as android.widget.Button.
func validClassName(s string) bool {
	for _, part := range strings.Split(s, ".") {
		if !validIdent(part) {
			return false
		}
	}
	return true
}

// MaxLinkedNodes bounds the view nodes Link may splice in across all
// layouts of an application. Each <include> copies the included layout's
// linked tree, so layouts that each include the next one twice double the
// copy per level: eighteen such layouts, 1.6 KB of XML, ask for half a
// million nodes. The Table-1 corpus splices at most a few hundred.
const MaxLinkedNodes = 1 << 16

// ExpansionError is Link's refusal of an application whose <include>
// splicing would copy more than MaxLinkedNodes view nodes.
type ExpansionError struct {
	// Layout is the first layout, in name order, whose includes push the
	// running total past the bound.
	Layout string
	// Chain is the include path from Layout along its largest includes.
	Chain []string
}

func (e *ExpansionError) Error() string {
	return fmt.Sprintf("layout %s: <include> splicing passes %d views (include chain %s)",
		e.Layout, MaxLinkedNodes, strings.Join(e.Chain, " -> "))
}

// Link resolves <include> references across a set of layouts, splicing the
// included layout's tree (or a merge root's children) in place of the
// include node. Cyclic includes, includes of unknown layouts, and a total
// splice past MaxLinkedNodes are errors, reported before any layout
// changes.
func Link(layouts map[string]*Layout) error {
	names := make([]string, 0, len(layouts))
	for name := range layouts {
		names = append(names, name)
	}
	sort.Strings(names)
	x := expansion{layouts: layouts, size: map[string]int{}}
	total := 0
	for _, name := range names {
		if _, err := x.linkedSize(name); err != nil {
			return err
		}
		for _, inc := range includes(layouts[name].Root, nil) {
			total = satAdd(total, x.size[inc])
		}
		if total > MaxLinkedNodes {
			return &ExpansionError{Layout: name, Chain: x.chain(name)}
		}
	}
	linked := map[string]bool{}
	for _, name := range names {
		splice(layouts, name, linked)
	}
	return nil
}

// expansion sizes each layout's linked tree once, over the include DAG,
// without building it.
type expansion struct {
	layouts map[string]*Layout
	// size is the view count a layout contributes where it is included
	// (its linked Root.Count()), capped past MaxLinkedNodes; -1 while the
	// layout is being sized, which is how a cycle shows.
	size map[string]int
}

func (x *expansion) linkedSize(name string) (int, error) {
	if s, ok := x.size[name]; ok {
		if s < 0 {
			return 0, fmt.Errorf("layout %s: cyclic <include>", name)
		}
		return s, nil
	}
	x.size[name] = -1
	var count func(n *Node) (int, error)
	count = func(n *Node) (int, error) {
		if n.Include != "" {
			if _, ok := x.layouts[n.Include]; !ok {
				return 0, fmt.Errorf("layout %s: include of unknown layout %q", name, n.Include)
			}
			return x.linkedSize(n.Include)
		}
		c := 0
		if !n.Merge {
			c = 1
		}
		for _, ch := range n.Children {
			s, err := count(ch)
			if err != nil {
				return 0, err
			}
			c = satAdd(c, s)
		}
		return c, nil
	}
	s, err := count(x.layouts[name].Root)
	if err != nil {
		return 0, err
	}
	x.size[name] = s
	return s, nil
}

// chain follows name's largest include (the first, on a tie) down to a
// layout that includes nothing.
func (x *expansion) chain(name string) []string {
	chain := []string{name}
	for {
		next := ""
		for _, inc := range includes(x.layouts[name].Root, nil) {
			if next == "" || x.size[inc] > x.size[next] {
				next = inc
			}
		}
		if next == "" {
			return chain
		}
		name = next
		chain = append(chain, name)
	}
}

// includes appends the layouts n's subtree includes, in preorder.
func includes(n *Node, out []string) []string {
	if n.Include != "" {
		return append(out, n.Include)
	}
	for _, ch := range n.Children {
		out = includes(ch, out)
	}
	return out
}

// satAdd adds two view counts, capping the sum just past MaxLinkedNodes so
// an exponential include chain cannot overflow it.
func satAdd(a, b int) int {
	return min(a+b, MaxLinkedNodes+1)
}

// splice links one layout whose includes Link has already checked: each
// included layout is linked first, then copied in place of the include.
func splice(layouts map[string]*Layout, name string, linked map[string]bool) {
	if linked[name] {
		return
	}
	linked[name] = true
	var fix func(n *Node)
	fix = func(n *Node) {
		for i := 0; i < len(n.Children); i++ {
			ch := n.Children[i]
			if ch.Include == "" {
				fix(ch)
				continue
			}
			splice(layouts, ch.Include, linked)
			repl := cloneNode(layouts[ch.Include].Root)
			if repl.Merge {
				// Splice the merge children directly.
				kids := repl.Children
				n.Children = append(n.Children[:i], append(kids, n.Children[i+1:]...)...)
				i += len(kids) - 1
			} else {
				if ch.ID != "" {
					// <include android:id=...> overrides the root id.
					repl.ID = ch.ID
				}
				n.Children[i] = repl
			}
		}
	}
	fix(layouts[name].Root)
}

// Render serializes a layout back to XML. Parse(Render(l)) yields an
// equivalent layout; useful for generated corpora and for re-linking a
// layout that was already spliced.
func Render(l *Layout) string {
	var b strings.Builder
	var render func(n *Node)
	render = func(n *Node) {
		cls := n.Class
		if n.Include != "" {
			b.WriteString(`<include layout="@layout/` + n.Include + `"`)
			if n.ID != "" {
				b.WriteString(` android:id="@+id/` + n.ID + `"`)
			}
			b.WriteString("/>")
			return
		}
		fmt.Fprintf(&b, "<%s", cls)
		if n.ID != "" {
			fmt.Fprintf(&b, " android:id=%q", "@+id/"+n.ID)
		}
		if n.OnClick != "" {
			fmt.Fprintf(&b, " android:onClick=%q", n.OnClick)
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteString(">")
		for _, c := range n.Children {
			render(c)
		}
		fmt.Fprintf(&b, "</%s>", cls)
	}
	render(l.Root)
	return b.String()
}

// Clone returns a deep copy of a layout, so one parse can be linked several
// times.
func Clone(l *Layout) *Layout {
	return &Layout{Name: l.Name, Root: cloneNode(l.Root)}
}

func cloneNode(n *Node) *Node {
	c := *n
	if n.Children == nil {
		return &c
	}
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = cloneNode(ch)
	}
	return &c
}
