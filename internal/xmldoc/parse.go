package xmldoc

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// MaxDepth is the deepest element nesting Parse accepts. The deepest
// document this repository builds, a UDDI entry inside a reply envelope, is
// about a dozen levels deep.
const MaxDepth = 256

// Parse reads an XML document from r and returns it in normal form:
//
//   - Namespace prefixes are dropped from element and attribute names, and
//     namespace declarations are not kept as attributes.
//   - A text segment — the raw text between two markups, or one CDATA
//     section — that is whitespace only is dropped. The remaining text is
//     coalesced across comments, CDATA sections and processing
//     instructions; then \r\n, a raw \r and &#13; each become \n.
//   - Attributes are sorted by name; node identifiers are dense in
//     document order.
//
// Canonical prints a tree in normal form, so Parse(Canonical(Parse(x)))
// equals Parse(x). Parse accepts what encoding/xml accepts, except that it
// refuses a document type declaration or any other <! declaration, a
// second root element, an attribute name repeated once prefixes are
// dropped, a kept name whose part after the prefix is not a name (p:0),
// and nesting deeper than MaxDepth.
// seclint:sanitizer
func Parse(docName string, r io.Reader) (*Document, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmldoc: parse %s: %w", docName, err)
	}
	return ParseString(docName, string(src))
}

// ParseString is Parse over a string.
// seclint:sanitizer
func ParseString(docName, s string) (*Document, error) {
	p := &parser{src: s}
	p.open, p.kids, p.attrs = p.openBuf[:0], p.kidsBuf[:0], p.attrsBuf[:0]
	d, err := p.document(docName)
	if err != nil {
		return nil, fmt.Errorf("xmldoc: parse %s: offset %d: %w", docName, p.pos, err)
	}
	return d, nil
}

// MustParseString is ParseString that panics on error; for tests and
// examples with literal documents.
// seclint:sanitizer
func MustParseString(docName, s string) *Document {
	d, err := ParseString(docName, s)
	if err != nil {
		panic(err)
	}
	return d
}

// parser reads one document in a single pass. Names, and values that hold
// no reference or carriage return, are substrings of src; nodes and the
// Children and Attrs slices are cut from slabs.
type parser struct {
	src string
	pos int
	d   *Document

	chunk int     // slab size
	nodes []Node  // unused tail of the node slab
	slots []*Node // unused tail of the Children/Attrs slab

	open  []frame // open elements, innermost last
	kids  []*Node // children of the open elements, each frame's from its mark on
	attrs []attr  // attributes of the start tag being read
	refs  []*Node // idref and idrefs attributes, in document order
	buf   []byte  // a value being decoded

	// uris maps the namespace prefixes in scope to their URIs, which
	// decide only whether an attribute is a declaration; undo restores it
	// as elements close.
	uris map[string]string
	undo []binding

	// run is the text node the current run of text extends; once a second
	// segment joins it, its value is gathered in runBuf.
	run    *Node
	runBuf []byte
	joined bool

	// Room for the stacks of a typical document, which then needs no
	// allocation of its own for them.
	openBuf  [8]frame
	kidsBuf  [16]*Node
	attrsBuf [4]attr
}

type frame struct {
	n     *Node
	qname string // the name as written, which the end tag repeats
	mark  int    // len(kids) when n opened
}

type attr struct{ space, local, value string }

// binding is the mapping a namespace declaration on the element at depth
// replaced.
type binding struct {
	prefix, prev string
	bound        bool
	depth        int
}

func (p *parser) document(docName string) (*Document, error) {
	p.d = &Document{Name: docName}
	// About one node per < or =: the slabs are cut to that, at most 1024
	// nodes at a time, so a hostile document costs memory only as it parses.
	p.chunk = min(strings.Count(p.src, "<")+strings.Count(p.src, "="), 1024) + 1
	p.d.nodes = make([]*Node, 0, p.chunk)
	for p.pos < len(p.src) {
		rest := p.src[p.pos:]
		var err error
		switch {
		case rest[0] != '<':
			err = p.text()
		case strings.HasPrefix(rest, "</"):
			err = p.endTag()
		case strings.HasPrefix(rest, "<?"):
			err = p.procInst()
		case strings.HasPrefix(rest, "<!--"):
			err = p.comment()
		case strings.HasPrefix(rest, "<![CDATA["):
			err = p.cdata()
		case strings.HasPrefix(rest, "<!"):
			err = errors.New("<! declarations are not accepted")
		default:
			err = p.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if len(p.open) > 0 {
		return nil, fmt.Errorf("input ends inside <%s>", p.open[len(p.open)-1].qname)
	}
	if p.d.Root == nil {
		return nil, errors.New("no root element")
	}
	for _, a := range p.refs {
		p.d.link(a)
	}
	return p.d, nil
}

func (p *parser) newNode(kind NodeKind, name, value string, parent *Node) *Node {
	if len(p.nodes) == 0 {
		p.nodes = make([]Node, p.chunk)
	}
	n := &p.nodes[0]
	p.nodes = p.nodes[1:]
	*n = Node{Kind: kind, Name: name, Value: value, Parent: parent, id: len(p.d.nodes), doc: p.d}
	p.d.nodes = append(p.d.nodes, n)
	return n
}

// take returns k slots whose capacity ends where they do.
func (p *parser) take(k int) []*Node {
	if len(p.slots) < k {
		p.slots = make([]*Node, max(k, p.chunk))
	}
	s := p.slots[:k:k]
	p.slots = p.slots[k:]
	return s
}

func (p *parser) startTag() error {
	p.pos++ // <
	qname, err := p.qname()
	if err != nil {
		return err
	}
	depth := len(p.open) + 1
	if depth == 1 && p.d.Root != nil {
		return fmt.Errorf("second root element <%s>", qname)
	}
	if depth > MaxDepth {
		return fmt.Errorf("elements nested deeper than %d", MaxDepth)
	}
	p.attrs = p.attrs[:0]
	empty := false
	for {
		p.skipSpace()
		if strings.HasPrefix(p.src[p.pos:], ">") {
			p.pos++
			break
		}
		if strings.HasPrefix(p.src[p.pos:], "/>") {
			p.pos += 2
			empty = true
			break
		}
		if err := p.attribute(depth); err != nil {
			return err
		}
	}
	p.endRun()
	var parent *Node
	if depth > 1 {
		parent = p.open[depth-2].n
	}
	space, local := splitName(qname)
	if err := checkLocal(space, local); err != nil {
		return err
	}
	n := p.newNode(KindElement, local, "", parent)
	if parent == nil {
		p.d.Root = n
	} else {
		p.kids = append(p.kids, n)
	}
	if err := p.attach(n); err != nil {
		return err
	}
	if empty {
		p.close(n, len(p.kids), depth)
	} else {
		p.open = append(p.open, frame{n: n, qname: qname, mark: len(p.kids)})
	}
	return nil
}

// attribute reads name="value" or name='value' and, for a namespace
// declaration, brings its prefix into scope at depth.
func (p *parser) attribute(depth int) error {
	qname, err := p.qname()
	if err != nil {
		return err
	}
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], "=") {
		return fmt.Errorf("attribute %s without a value", qname)
	}
	p.pos++
	p.skipSpace()
	if p.pos == len(p.src) || p.src[p.pos] != '"' && p.src[p.pos] != '\'' {
		return fmt.Errorf("attribute %s: unquoted value", qname)
	}
	end := strings.IndexByte(p.src[p.pos+1:], p.src[p.pos])
	if end < 0 {
		return fmt.Errorf("attribute %s: unterminated value", qname)
	}
	raw := p.src[p.pos+1 : p.pos+1+end]
	if strings.IndexByte(raw, '<') >= 0 {
		return fmt.Errorf("attribute %s: < in value", qname)
	}
	v, err := p.decode(raw, true)
	if err != nil {
		return err
	}
	p.pos += end + 2
	space, local := splitName(qname)
	if space == "xmlns" {
		if p.uris == nil {
			p.uris = make(map[string]string)
		}
		prev, bound := p.uris[local]
		p.undo = append(p.undo, binding{prefix: local, prev: prev, bound: bound, depth: depth})
		p.uris[local] = v
	}
	p.attrs = append(p.attrs, attr{space, local, v})
	return nil
}

// attach gives n the attributes of its start tag, sorted and indexed. Left
// out are the namespace declarations as encoding/xml reads them: xmlns,
// xmlns:p, p:xmlns, and p:x where p is bound to the URI "xmlns".
func (p *parser) attach(n *Node) error {
	kept := p.attrs[:0]
	for _, a := range p.attrs {
		if a.space == "xmlns" || a.local == "xmlns" || a.space != "" && a.space != "xml" && p.uris[a.space] == "xmlns" {
			continue
		}
		if err := checkLocal(a.space, a.local); err != nil {
			return err
		}
		kept = append(kept, a)
	}
	if len(kept) == 0 {
		return nil
	}
	slices.SortFunc(kept, func(a, b attr) int { return strings.Compare(a.local, b.local) })
	n.Attrs = p.take(len(kept))
	for i, a := range kept {
		if i > 0 && a.local == kept[i-1].local {
			return fmt.Errorf("attribute %s repeated", a.local)
		}
		an := p.newNode(KindAttr, a.local, parsedNewlines(a.value), n)
		n.Attrs[i] = an
		switch a.local {
		case "id":
			if p.d.byXMLID == nil {
				p.d.byXMLID = make(map[string]*Node)
			}
			p.d.byXMLID[an.Value] = n
		case "idref", "idrefs":
			p.refs = append(p.refs, an)
		}
	}
	return nil
}

func (p *parser) endTag() error {
	p.pos += len("</")
	start := p.pos
	for p.pos < len(p.src) && nameBytes[p.src[p.pos]] {
		p.pos++
	}
	qname := p.src[start:p.pos]
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], ">") {
		return fmt.Errorf("end tag </%s> not closed by >", qname)
	}
	p.pos++
	if len(p.open) == 0 {
		return fmt.Errorf("end tag </%s> outside the root element", qname)
	}
	f := p.open[len(p.open)-1]
	if qname != f.qname {
		return fmt.Errorf("<%s> closed by </%s>", f.qname, qname)
	}
	p.open = p.open[:len(p.open)-1]
	p.close(f.n, f.mark, len(p.open)+1)
	return nil
}

// close gives the element n at depth the children gathered since mark and
// takes its namespace declarations out of scope.
func (p *parser) close(n *Node, mark, depth int) {
	p.endRun()
	if kids := p.kids[mark:]; len(kids) > 0 {
		n.Children = p.take(len(kids))
		copy(n.Children, kids)
		p.kids = p.kids[:mark]
	}
	for len(p.undo) > 0 && p.undo[len(p.undo)-1].depth >= depth {
		b := p.undo[len(p.undo)-1]
		p.undo = p.undo[:len(p.undo)-1]
		if b.bound {
			p.uris[b.prefix] = b.prev
		} else {
			delete(p.uris, b.prefix)
		}
	}
}

// text reads the character data up to the next markup.
func (p *parser) text() error {
	raw := p.src[p.pos:]
	if end := strings.IndexByte(raw, '<'); end >= 0 {
		raw = raw[:end]
	}
	if strings.Contains(raw, "]]>") {
		return errors.New("]]> outside a CDATA section")
	}
	v, err := p.decode(raw, true)
	if err != nil {
		return err
	}
	p.pos += len(raw)
	p.addText(v)
	return nil
}

func (p *parser) cdata() error {
	start := p.pos + len("<![CDATA[")
	end := strings.Index(p.src[start:], "]]>")
	if end < 0 {
		return errors.New("unterminated CDATA section")
	}
	v, err := p.decode(p.src[start:start+end], false)
	if err != nil {
		return err
	}
	p.pos = start + end + len("]]>")
	p.addText(v)
	return nil
}

// addText adds one segment of text to the innermost open element: dropped
// when whitespace only, else appended to the current run.
func (p *parser) addText(v string) {
	if len(p.open) == 0 || strings.TrimSpace(v) == "" {
		return
	}
	if p.run != nil {
		if !p.joined {
			p.runBuf = append(p.runBuf[:0], p.run.Value...)
			p.joined = true
		}
		p.runBuf = append(p.runBuf, v...)
		return
	}
	f := p.open[len(p.open)-1]
	p.run = p.newNode(KindText, "", v, f.n)
	p.kids = append(p.kids, p.run)
}

// endRun ends the current run of text at an element boundary.
func (p *parser) endRun() {
	if p.run != nil {
		if p.joined {
			p.run.Value = string(p.runBuf)
			p.joined = false
		}
		p.run.Value = parsedNewlines(p.run.Value)
		p.run = nil
	}
}

func (p *parser) comment() error {
	start := p.pos + len("<!--")
	end := strings.Index(p.src[start:], "--")
	if end < 0 || !strings.HasPrefix(p.src[start+end:], "-->") {
		return errors.New(`unterminated comment, or "--" inside one`)
	}
	p.pos = start + end + len("-->")
	return nil
}

func (p *parser) procInst() error {
	p.pos += len("<?")
	target, err := p.name()
	if err != nil {
		return err
	}
	p.skipSpace()
	end := strings.Index(p.src[p.pos:], "?>")
	if end < 0 {
		return errors.New("unterminated processing instruction")
	}
	if data := p.src[p.pos : p.pos+end]; target == "xml" {
		if v := declParam("version", data); v != "" && v != "1.0" {
			return fmt.Errorf("XML version %q", v)
		}
		if e := declParam("encoding", data); e != "" && !strings.EqualFold(e, "utf-8") {
			return fmt.Errorf("encoding %q", e)
		}
	}
	p.pos += end + len("?>")
	return nil
}

// declParam returns the value of param="value" or param='value' in the data
// of an XML declaration, or "" when there is none.
func declParam(param, data string) string {
	param += "="
	for i := 0; i < len(data); {
		k := strings.Index(data[i:], param)
		if k < 0 || i+k+len(param) >= len(data) {
			return ""
		}
		i += k + len(param) + 1
		if q := data[i-1]; q == '"' || q == '\'' {
			if j := strings.IndexByte(data[i:], q); j >= 0 {
				return data[i : i+j]
			}
			return ""
		}
	}
	return ""
}

// name reads the longest run of name bytes, which must be an XML name.
func (p *parser) name() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && nameBytes[p.src[p.pos]] {
		p.pos++
	}
	s := p.src[start:p.pos]
	if !isName(s) {
		return "", fmt.Errorf("expected a name, found %q", s)
	}
	return s, nil
}

// qname reads an element or attribute name: a name with at most one colon.
func (p *parser) qname() (string, error) {
	s, err := p.name()
	if err == nil && strings.Count(s, ":") > 1 {
		err = fmt.Errorf("name %q has more than one colon", s)
	}
	return s, err
}

// splitName splits prefix:local; a name with no colon between two
// non-empty parts is all local.
func splitName(qname string) (space, local string) {
	if i := strings.IndexByte(qname, ':'); i > 0 && i < len(qname)-1 {
		return qname[:i], qname[i+1:]
	}
	return "", qname
}

// checkLocal refuses a prefixed name whose local part is not a name of its
// own, as in p:0: the tree keeps only the local part, and Canonical could
// not print it back.
func checkLocal(space, local string) error {
	if space != "" && !isName(local) {
		return fmt.Errorf("name %s:%s: %q after the prefix is not a name", space, local, local)
	}
	return nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// decode checks raw character data and returns its value: references
// replaced when refs is set, and \r\n or a raw \r read as \n. Data with
// neither is its own value.
func (p *parser) decode(raw string, refs bool) (string, error) {
	b := p.buf[:0]
	last, changed := 0, false
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRuneInString(raw[i:])
			if r == utf8.RuneError && n == 1 {
				return "", errors.New("invalid UTF-8")
			}
			if r == 0xFFFE || r == 0xFFFF {
				return "", fmt.Errorf("illegal character %U", r)
			}
			i += n
			continue
		case c == '&' && refs:
			r, n, err := charRef(raw[i:])
			if err != nil {
				return "", err
			}
			b = utf8.AppendRune(append(b, raw[last:i]...), r)
			i += n
		case c == '\r':
			b = append(append(b, raw[last:i]...), '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		case c < ' ' && c != '\t' && c != '\n':
			return "", fmt.Errorf("illegal character %U", rune(c))
		default:
			i++
			continue
		}
		last, changed = i, true
	}
	if !changed {
		return raw, nil
	}
	p.buf = append(b, raw[last:]...)
	return string(p.buf), nil
}

// charRef reads the entity or character reference s starts with and
// returns the character it stands for and its length. A reference to a
// surrogate stands for U+FFFD, as in encoding/xml.
func charRef(s string) (rune, int, error) {
	for _, e := range [...]struct {
		name string
		r    rune
	}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}} {
		if strings.HasPrefix(s[1:], e.name) {
			return e.r, 1 + len(e.name), nil
		}
	}
	i, base := len("&#"), rune(10)
	if strings.HasPrefix(s, "&#x") {
		i, base = len("&#x"), 16
	}
	start := i
	var r rune
	for ; i < len(s) && digit(s[i]) < base && r <= unicode.MaxRune; i++ {
		r = r*base + digit(s[i])
	}
	legal := r == '\t' || r == '\n' || r == '\r' || ' ' <= r && r <= unicode.MaxRune && r != 0xFFFE && r != 0xFFFF
	if !strings.HasPrefix(s, "&#") || i == start || !strings.HasPrefix(s[i:], ";") || !legal {
		return 0, 0, fmt.Errorf("invalid reference %q", s[:min(len(s), 12)])
	}
	return r, i + 1, nil
}

// digit returns the value of a hexadecimal digit, or 16 for any other byte.
func digit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}
