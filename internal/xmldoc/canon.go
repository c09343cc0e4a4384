package xmldoc

// Canonical serialization. Signing and Merkle hashing (internal/wsig,
// internal/merkle) need a byte representation that is identical for
// structurally identical documents, regardless of how they were built or
// which attribute order the producer used. Freeze already sorts attributes;
// Canonical additionally escapes consistently and emits no insignificant
// whitespace, in the spirit of W3C Canonical XML (the paper points at the
// W3C XML-Signature work for exactly this purpose).
//
// There is one encoder, AppendCanonical, and it appends to a caller's
// buffer: a codec that frames canonical subtrees with markup of its own
// (internal/wsa) writes the whole message into one buffer with the same
// escaping, instead of building a tree to print it.

// Canonical returns the canonical serialization of the document.
func (d *Document) Canonical() string {
	if d.Root == nil {
		return ""
	}
	return CanonicalSubtree(d.Root)
}

// CanonicalSubtree returns the canonical serialization of the subtree rooted
// at n. For attribute nodes it serializes name="value"; for text nodes the
// escaped text.
func CanonicalSubtree(n *Node) string {
	return string(AppendCanonical(nil, n))
}

// AppendCanonical appends CanonicalSubtree(n) to dst.
//
// seclint:exempt serializes a tree the caller already holds; reads no stored document
func AppendCanonical(dst []byte, n *Node) []byte {
	switch n.Kind {
	case KindText:
		dst = AppendText(dst, n.Value)
	case KindAttr:
		dst = AppendAttr(dst, n.Name, n.Value)
	case KindElement:
		dst = append(dst, '<')
		dst = append(dst, n.Name...)
		for _, a := range n.Attrs {
			dst = append(dst, ' ')
			dst = AppendAttr(dst, a.Name, a.Value)
		}
		dst = append(dst, '>')
		for _, c := range n.Children {
			dst = AppendCanonical(dst, c)
		}
		dst = append(dst, "</"...)
		dst = append(dst, n.Name...)
		dst = append(dst, '>')
	}
	return dst
}

// AppendText appends s escaped as canonical element content.
//
// seclint:exempt string escaping; touches no document
func AppendText(dst []byte, s string) []byte { return appendEscaped(dst, s, '>', "&gt;") }

// AppendAttr appends name="value" with the value escaped as a canonical
// attribute value.
//
// seclint:exempt string escaping; touches no document
func AppendAttr(dst []byte, name, value string) []byte {
	dst = append(dst, name...)
	dst = append(dst, `="`...)
	dst = appendEscaped(dst, value, '"', "&quot;")
	return append(dst, '"')
}

// appendEscaped escapes & and <, which no context may carry raw, and the
// one character special to the context at hand: > in text, " in attribute
// values.
func appendEscaped(dst []byte, s string, special byte, specialEsc string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case special:
			esc = specialEsc
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}
