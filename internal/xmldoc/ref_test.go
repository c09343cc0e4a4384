package xmldoc

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// refParse is the encoding/xml reader Parse replaced, kept verbatim as the
// reference: Parse must build exactly Detach(refParse(x).Root) wherever
// refParse accepts x, bar the divergences refDivergence names.
func refParse(docName string, r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var b *Builder
	depth := 0
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse %s: %w", docName, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if b == nil {
				b = NewBuilder(docName, t.Name.Local)
			} else {
				b.Begin(t.Name.Local)
			}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attrib(a.Name.Local, a.Value)
			}
			depth++
		case xml.EndElement:
			depth--
			if depth > 0 {
				b.End()
			}
		case xml.CharData:
			if b == nil || depth == 0 {
				continue
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			b.Text(s)
		}
	}
	if b == nil {
		return nil, fmt.Errorf("xmldoc: parse %s: no root element", docName)
	}
	return b.Freeze(), nil
}

// refDivergence names the declared divergence in src — input encoding/xml
// reads that Parse refuses on purpose — or returns "" when there is none.
func refDivergence(src string) string {
	dec := xml.NewDecoder(strings.NewReader(src))
	depth, roots := 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		switch t := tok.(type) {
		case xml.Directive:
			return "<! declaration"
		case xml.StartElement:
			if depth == 0 {
				if roots++; roots > 1 {
					return "second root"
				}
			}
			if depth++; depth > MaxDepth {
				return "depth"
			}
			if !refIsName(t.Name.Local) {
				return "local part not a name"
			}
			seen := map[string]bool{}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				if !refIsName(a.Name.Local) {
					return "local part not a name"
				}
				if seen[a.Name.Local] {
					return "repeated attribute"
				}
				seen[a.Name.Local] = true
			}
		case xml.EndElement:
			depth--
		}
	}
}

// refIsName asks encoding/xml whether s is an element name.
func refIsName(s string) bool {
	_, err := xml.NewDecoder(strings.NewReader("<" + s + "/>")).Token()
	return err == nil
}

// checkAgainstReference holds Parse to the reference on src.
func checkAgainstReference(t *testing.T, src string) {
	t.Helper()
	got, err := ParseString("d", src)
	ref, refErr := refParse("d", strings.NewReader(src))
	if err != nil {
		if refErr == nil && refDivergence(src) == "" {
			t.Fatalf("reference accepts %q, Parse refuses: %v", src, err)
		}
		return
	}
	if refErr != nil {
		t.Fatalf("Parse accepts %q, reference refuses: %v", src, refErr)
	}
	sameDocument(t, fmt.Sprintf("%q", src), got, Detach("d", ref.Root))
	again, err := ParseString("d", got.Canonical())
	if err != nil {
		t.Fatalf("canonical form of %q does not parse: %v", src, err)
	}
	sameDocument(t, fmt.Sprintf("reparse of %q", src), again, got)
}

// readerCases are inputs where Parse and encoding/xml could part ways.
var readerCases = []string{
	`<a/>`, ` <?xml version="1.0" encoding="UTF-8"?><!-- c --><a/> text after `,
	`<?xml version="1.1"?><a/>`, `<?xml encoding="latin1"?><a/>`, `<?xml xversion="2"?><a/>`,
	`<a x = '1'y="2" ></a >`, `<a x="1" x="2"/>`, `<a p:x="1" q:x="2"/>`, `<a/><b/>`, `<a/><!DOCTYPE a>`,
	`<!DOCTYPE a [<!ENTITY e "x">]><a/>`, `<a xmlns="u" xmlns:p="v" p:b="1" xmlns:q="xmlns" q:c="2"><q:d q:e="3"/></a>`,
	`<a xmlns:p="xmlns"><b xmlns:p="other" p:x="1"/><c p:y="2"/></a>`, `<p:a xmlns:p="u"></p:a>`, `<p:a></q:a>`,
	`<:a a:="1" :b="2"></:a>`, `<a:b:c/>`, `<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#X43;</a>`, `<a>&#xD800;&#0;</a>`,
	`<a>&#xD800;</a>`, `<a>&#xFFFE;</a>`, `<a>&#x110000;</a>`, `<a>&#00000065;</a>`, `<a>&nbsp;</a>`, `<a>&lt</a>`,
	"<a>\r\n \r x\r\ny\rz&#13;&#10;&#13;</a>", "<a>&#13;<!---->\n</a>", "<a>x\r<!---->\ny</a>", `<a>x<![CDATA[ ]]>y</a>`, `<a>]]></a>`,
	`<a x="]]>"/>`, `<a x="<"/>`, `<a><![CDATA[<&>]]]></a>`, `<a><!-- a -- b --></a>`, `<a><!---></a>`,
	`<a><!----></a>`, `<a><?pi?><?pi data ?><? x?></a>`, "<a>\x00</a>", "<a>\xff</a>", "<a>  </a>",
	"\ufeff<a>\ufeff</a>", "<\u00e9\u0300 x=\"1\"/>", "<a\u00b7/>", "<\u00b7/>", "<a>\u00a0\u2003</a>", `<a>x</a>y&z;`,
	`<a id="1"><b idref="1 2" id="2"/><c idrefs=" 1 2 3 "/></a>`, `<a id="1"><b id="1"/></a>`, `</a>`, `<a>`,
	`<a></b>`, `<a x></a>`, `<a x=1></a>`, `<a/ >`, `text`, ``, `<a b="&#9;&#10;&#13;	"/>`,
}

func TestParseMatchesReference(t *testing.T) {
	for _, src := range readerCases {
		checkAgainstReference(t, src)
	}
	for seed := int64(1); seed <= 300; seed++ {
		checkAgainstReference(t, (&xmlGen{r: rand.New(rand.NewSource(seed))}).element(0))
	}
}

// FuzzParseDocument: Parse never panics; it accepts what the reference
// accepts, bar the declared divergences, and then builds the reference's
// tree; what it accepts the reference accepts; and its output reparses as
// itself.
func FuzzParseDocument(f *testing.F) {
	for _, src := range readerCases {
		f.Add(src)
	}
	for seed := int64(1); seed <= 20; seed++ {
		f.Add((&xmlGen{r: rand.New(rand.NewSource(seed))}).element(0))
	}
	// Envelopes as the wsa codec writes and reads them.
	f.Add(`<envelope><header><operation>find_business</operation><sender>s</sender><role>a</role><role>b</role></header><body><findBusiness name="x &amp; y"></findBusiness></body></envelope>`)
	f.Add(`<envelope><header><operation>query_authenticated</operation></header><body><authenticatedResult><summary signer="p" value="00ff"></summary><proof><element><missing hash="ab" pos="1"></missing></element></proof><view><businessEntity businessKey="be-1"><name>n</name></businessEntity></view></authenticatedResult></body></envelope>`)
	f.Add(`<envelope><header><operation>op</operation></header><body>t<x a="&#13;">a<![CDATA[ b ]]><!-- c -->&#13;&#10;d<y/> </x><z/></body></envelope>`)
	f.Add(`<envelope xmlns:n="u"><header><operation>o</operation></header><body><fault>f</fault><n:p n:id="1" id="2" idref="1 2"/></body></envelope>`)
	f.Add(`<a/><envelope/>`)
	f.Fuzz(func(t *testing.T, src string) {
		checkAgainstReference(t, src)
	})
}

// TestParseRefusesDeclaredDivergences: each input here is one encoding/xml
// reads and Parse refuses on purpose.
func TestParseRefusesDeclaredDivergences(t *testing.T) {
	for _, src := range []string{
		`<!DOCTYPE a><a/>`, `<a><!ELEMENT a ANY></a>`,
		`<a/><b/>`, `<a></a><a></a>`, `<a/> <!-- --> <b>x</b>`,
		`<a x="1" x="2"/>`, `<a p:x="1" q:x="2"/>`, `<a x="1" p:x="1"/>`, `<a><b y="" z="" y=""/></a>`,
		`<p:0/>`, `<a p:-x="1"/>`, `<A A:0=""/>`,
	} {
		if d, err := ParseString("p", src); err == nil {
			t.Errorf("%s parsed as %s", src, d.Canonical())
		}
		if _, err := refParse("p", strings.NewReader(src)); err != nil || refDivergence(src) == "" {
			t.Errorf("%s: reference error %v, divergence %q", src, err, refDivergence(src))
		}
	}
	// Namespace declarations are not attributes of the tree, so they
	// neither repeat a name nor need a printable local part.
	for _, src := range []string{`<a xmlns:x="1" x="2" p:xmlns="3"/>`, `<a xmlns:0="u" xmlns:q="xmlns" q:0="1"/>`} {
		if _, err := ParseString("p", src); err != nil {
			t.Error(err)
		}
	}
}

func TestParseDepthBound(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("<a>", n) + strings.Repeat("</a>", n) }
	d, err := ParseString("p", nest(MaxDepth))
	if err != nil {
		t.Fatalf("depth %d: %v", MaxDepth, err)
	}
	if d.NumNodes() != MaxDepth {
		t.Fatalf("depth %d: %d nodes", MaxDepth, d.NumNodes())
	}
	for _, n := range []int{MaxDepth + 1, 1_000_000} {
		if _, err := ParseString("p", nest(n)); err == nil || !strings.Contains(err.Error(), "deeper") {
			t.Errorf("depth %d: %v", n, err)
		}
	}
}

// TestBuilderKeepsOneAttributePerName: what a Builder makes, Parse reads.
func TestBuilderKeepsOneAttributePerName(t *testing.T) {
	b := NewBuilder("b", "r")
	b.Attrib("x", "1").Attrib("y", "2").Attrib("x", "3")
	d := b.Freeze()
	if got := d.Canonical(); got != `<r x="3" y="2"></r>` {
		t.Fatalf("canonical = %s", got)
	}
	if _, err := ParseString("b", d.Canonical()); err != nil {
		t.Fatal(err)
	}
}

// TestNameCharactersMatchReference checks every character of the Basic
// Multilingual Plane as the first and as a later character of an element
// name. (Outside it neither reader accepts a name character.)
func TestNameCharactersMatchReference(t *testing.T) {
	accepts := func(src string) bool {
		dec := xml.NewDecoder(strings.NewReader(src))
		for {
			if _, err := dec.Token(); err != nil {
				return errors.Is(err, io.EOF)
			}
		}
	}
	for r := rune(0x80); r <= 0xFFFF; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		for _, src := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			_, err := ParseString("n", src)
			if (err == nil) != accepts(src) {
				t.Errorf("%q: Parse error %v, reference accepts %v", src, err, accepts(src))
			}
		}
	}
	for _, r := range []rune{0x10000, 0x1F600, 0x10FFFD} {
		if _, err := ParseString("n", "<a"+string(r)+"/>"); err == nil {
			t.Errorf("%U accepted in a name", r)
		}
	}
}
