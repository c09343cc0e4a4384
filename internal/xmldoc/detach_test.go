package xmldoc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sameDocument fails the test unless got is, node for node, the document
// want: serialisation, node table, id index and IDREF links.
func sameDocument(t *testing.T, ctx string, got, want *Document) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("%s: name %q, want %q", ctx, got.Name, want.Name)
	}
	if g, w := got.Canonical(), want.Canonical(); g != w {
		t.Fatalf("%s: canonical\n got %q\nwant %q", ctx, g, w)
	}
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: %d nodes, want %d", ctx, got.NumNodes(), want.NumNodes())
	}
	if got.Root.Parent != nil || got.NodeByID(0) != got.Root {
		t.Fatalf("%s: root is not node 0 of a tree of its own", ctx)
	}
	parentID := func(n *Node) int {
		if n.Parent == nil {
			return -1
		}
		return n.Parent.ID()
	}
	for id, w := range want.Nodes() {
		g := got.NodeByID(id)
		if g.Kind != w.Kind || g.Name != w.Name || g.Value != w.Value || g.ID() != id ||
			parentID(g) != parentID(w) || g.Document() != got {
			t.Fatalf("%s: node %d = %v %q %q (id %d, parent %d), want %v %q %q (parent %d)", ctx, id,
				g.Kind, g.Name, g.Value, g.ID(), parentID(g), w.Kind, w.Name, w.Value, parentID(w))
		}
		if w.Kind == KindAttr && w.Name == "id" {
			gn, gok := got.ElementByXMLID(w.Value)
			wn, _ := want.ElementByXMLID(w.Value)
			if !gok || gn.ID() != wn.ID() {
				t.Fatalf("%s: ElementByXMLID(%q) differs", ctx, w.Value)
			}
		}
	}
	if _, ok := got.ElementByXMLID("no-such-id"); ok {
		t.Fatalf("%s: id index answers for an absent id", ctx)
	}
	if len(got.Links) != len(want.Links) {
		t.Fatalf("%s: %d links, want %d", ctx, len(got.Links), len(want.Links))
	}
	for i, w := range want.Links {
		g := got.Links[i]
		if g.From.ID() != w.From.ID() || g.Attr != w.Attr || g.To.ID() != w.To.ID() {
			t.Fatalf("%s: link %d = %d -%s-> %d, want %d -%s-> %d", ctx, i,
				g.From.ID(), g.Attr, g.To.ID(), w.From.ID(), w.Attr, w.To.ID())
		}
	}
}

// xmlGen writes random XML source text covering what distinguishes a tree
// from the parse of its own serialisation.
type xmlGen struct {
	r   *rand.Rand
	ids int
}

var genTexts = []string{
	"plain", " padded ", "a &amp; b", "1 &lt; 2 &gt; 0", "say &quot;hi&quot;", "]]&gt;",
	"cr&#13;lf&#13;&#10;end", "&#13;", "tab&#9;nl&#10;", "line\nbreak", "é ∑", "x",
}

func (g *xmlGen) text() string { return genTexts[g.r.Intn(len(genTexts))] }

func (g *xmlGen) attrs() string {
	names := []string{"zeta", "alpha", "id", "idref", "idrefs", "mid", "Beta"}
	g.r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	var b strings.Builder
	for _, name := range names[:g.r.Intn(5)] {
		var v string
		switch name {
		case "id":
			// Mostly fresh, sometimes a repeat: the last one in document
			// order owns the id.
			g.ids++
			v = fmt.Sprintf("n%d", g.ids-g.r.Intn(2)*g.r.Intn(g.ids))
		case "idref":
			v = fmt.Sprintf("n%d", 1+g.r.Intn(g.ids+2))
		case "idrefs":
			v = fmt.Sprintf("n%d  n%d\tn%d", 1+g.r.Intn(g.ids+2), 1+g.r.Intn(g.ids+2), 1+g.r.Intn(g.ids+2))
		default:
			v = strings.ReplaceAll(g.text(), "'", "")
		}
		fmt.Fprintf(&b, " %s='%s'", name, v)
	}
	return b.String()
}

func (g *xmlGen) element(depth int) string {
	name := []string{"a", "b", "item", "ns:c"}[g.r.Intn(4)]
	var b strings.Builder
	fmt.Fprintf(&b, "<%s%s>", name, g.attrs())
	for i := g.r.Intn(7); i > 0; i-- {
		switch k := g.r.Intn(12); {
		case k == 0:
			b.WriteString(g.text())
		case k == 1:
			b.WriteString("<![CDATA[ raw <&> ]]>")
		case k == 2:
			b.WriteString("text<![CDATA[cdata]]>" + g.text())
		case k == 3:
			b.WriteString(" \n\t ")
		case k == 4:
			b.WriteString(g.text() + "<!-- split -->" + g.text())
		case k == 5:
			b.WriteString("<?pi data?>")
		case k == 6:
			b.WriteString("x<![CDATA[ ]]><!-- c --> ")
		case depth < 4:
			b.WriteString(g.element(depth + 1))
		}
	}
	fmt.Fprintf(&b, "</%s>", name)
	return b.String()
}

// TestDetachEqualsPrintAndParse is the contract of Detach: for every
// element of a parsed document, the detached subtree is the document a
// parse of its canonical form builds.
func TestDetachEqualsPrintAndParse(t *testing.T) {
	subtrees := 0
	for seed := int64(1); seed <= 150; seed++ {
		g := &xmlGen{r: rand.New(rand.NewSource(seed))}
		src := g.element(0)
		first, err := ParseString("src", src)
		if err != nil {
			t.Fatalf("seed %d: generator wrote unparsable XML %q: %v", seed, src, err)
		}
		for id, n := range first.Nodes() {
			if n.Kind != KindElement {
				continue
			}
			want, err := ParseString("sub", CanonicalSubtree(n))
			if err != nil {
				t.Fatalf("seed %d node %d: %v", seed, id, err)
			}
			// Detach consumes its donor, so each element gets its own.
			donor := MustParseString("src", src)
			got := Detach("sub", donor.NodeByID(id))
			sameDocument(t, fmt.Sprintf("seed %d node %d of %q", seed, id, src), got, want)
			subtrees++
		}
	}
	if subtrees < 1000 {
		t.Fatalf("only %d subtrees compared", subtrees)
	}
}

// builtDoc makes a Builder document with the shapes only a program can
// produce: empty and whitespace-only text, text beside text, raw carriage
// returns, attributes added out of order.
func builtDoc(r *rand.Rand) *Document {
	texts := []string{"", " ", "v", "a\r\nb", "\r", "x & y", "<tag>", `"q"`, "\n"}
	b := NewBuilder("built", "root")
	var fill func(depth int)
	fill = func(depth int) {
		for _, name := range []string{"z", "id", "a", "idref"}[r.Intn(4):] {
			b.Attrib(name, fmt.Sprintf("n%d", r.Intn(4)))
		}
		for i := r.Intn(5); i > 0; i-- {
			switch {
			case r.Intn(3) > 0:
				b.Text(texts[r.Intn(len(texts))])
			case depth < 3:
				b.Begin([]string{"e", "f"}[r.Intn(2)])
				fill(depth + 1)
				b.End()
			default:
				b.Element("leaf", texts[r.Intn(len(texts))])
			}
		}
	}
	fill(0)
	return b.Freeze()
}

func TestDetachBuiltDocuments(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		first := builtDoc(rand.New(rand.NewSource(seed)))
		for id, n := range first.Nodes() {
			if n.Kind != KindElement {
				continue
			}
			want, err := ParseString("sub", CanonicalSubtree(n))
			if err != nil {
				t.Fatalf("seed %d node %d: %v", seed, id, err)
			}
			donor := builtDoc(rand.New(rand.NewSource(seed)))
			sameDocument(t, fmt.Sprintf("seed %d node %d", seed, id), Detach("sub", donor.NodeByID(id)), want)
		}
	}
}

// TestDetachAdoptsOtherDocumentsRoots covers the second documented use: a
// fresh element whose children are the roots of other documents.
func TestDetachAdoptsOtherDocumentsRoots(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		wrap := func() *Node {
			r := rand.New(rand.NewSource(seed))
			root := &Node{Kind: KindElement, Name: "wrapper"}
			for i := 0; i < 3; i++ {
				root.Children = append(root.Children, builtDoc(r).Root)
			}
			return root
		}
		want, err := ParseString("w", CanonicalSubtree(wrap()))
		if err != nil {
			t.Fatal(err)
		}
		sameDocument(t, fmt.Sprintf("seed %d", seed), Detach("w", wrap()), want)
	}
}

// TestAppendCanonicalEqualsReplacerEncoder pins the encoder's bytes to the
// strings.Replacer-based encoder it replaced, kept here as the reference.
func TestAppendCanonicalEqualsReplacerEncoder(t *testing.T) {
	textEsc := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEsc := strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
	var ref func(b *strings.Builder, n *Node)
	ref = func(b *strings.Builder, n *Node) {
		switch n.Kind {
		case KindText:
			b.WriteString(textEsc.Replace(n.Value))
		case KindAttr:
			b.WriteString(n.Name + `="` + attrEsc.Replace(n.Value) + `"`)
		case KindElement:
			b.WriteString("<" + n.Name)
			for _, a := range n.Attrs {
				b.WriteString(" " + a.Name + `="` + attrEsc.Replace(a.Value) + `"`)
			}
			b.WriteString(">")
			for _, c := range n.Children {
				ref(b, c)
			}
			b.WriteString("</" + n.Name + ">")
		}
	}
	for seed := int64(1); seed <= 100; seed++ {
		docs := []*Document{
			builtDoc(rand.New(rand.NewSource(seed))),
			MustParseString("p", (&xmlGen{r: rand.New(rand.NewSource(seed))}).element(0)),
		}
		for _, d := range docs {
			for _, n := range d.Nodes() {
				var b strings.Builder
				ref(&b, n)
				if got := CanonicalSubtree(n); got != b.String() {
					t.Fatalf("seed %d node %d: %q, reference %q", seed, n.ID(), got, b.String())
				}
				if got := string(AppendCanonical([]byte("prefix"), n)); got != "prefix"+b.String() {
					t.Fatalf("seed %d node %d: append form disturbed its prefix: %q", seed, n.ID(), got)
				}
			}
		}
	}
}
