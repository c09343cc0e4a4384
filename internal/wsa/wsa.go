// Package wsa implements the Web Service Architecture of §2.2: "three are
// the main entities composing the Web Service Architecture (WSA): the
// service provider ... the service requestor ... and the discovery agency,
// which manages UDDI registries."
//
// Messages travel in SOAP-style XML envelopes over HTTP (net/http). The
// package provides the envelope codec, a service-description document
// (WSDL's role), and the HTTP binding for the UDDI inquiry and publish
// APIs so a registry can be deployed as an actual network service —
// two-party (provider hosts it) or third-party (a separate agency does).
package wsa

import (
	"fmt"
	"io"

	"webdbsec/internal/xmldoc"
)

// Envelope is the message wrapper: a header carrying metadata (requestor
// identity, roles, message id) and a body holding the operation payload.
type Envelope struct {
	// Operation names the requested API function, e.g. "find_business".
	Operation string
	// Sender identifies the requestor or publisher.
	Sender string
	// Roles are the sender's asserted roles (validated upstream by the
	// session layer; the paper's subject qualification happens there).
	Roles []string
	// Body is the payload document; its root element is the operation
	// element.
	Body *xmldoc.Document
	// Fault carries an error message in responses.
	Fault string
}

// Encode serializes the envelope to its XML wire form.
func (e *Envelope) Encode() string { return string(e.encode()) }

func (e *Envelope) encode() []byte {
	buf := e.appendOpen(nil)
	if e.Body != nil && e.Body.Root != nil {
		buf = xmldoc.AppendCanonical(buf, e.Body.Root)
	}
	return e.appendClose(buf)
}

// appendOpen appends the wire form up to where the payload starts; the
// caller appends the payload's canonical bytes and then appendClose.
func (e *Envelope) appendOpen(dst []byte) []byte {
	dst = append(dst, "<envelope><header>"...)
	dst = appendElement(dst, "operation", e.Operation)
	if e.Sender != "" {
		dst = appendElement(dst, "sender", e.Sender)
	}
	for _, r := range e.Roles {
		dst = appendElement(dst, "role", r)
	}
	return append(dst, "</header><body>"...)
}

// appendClose appends what follows the payload: the fault, if any, and the
// closing tags.
func (e *Envelope) appendClose(dst []byte) []byte {
	if e.Fault != "" {
		dst = appendElement(dst, "fault", e.Fault)
	}
	return append(dst, "</body></envelope>"...)
}

// appendElement appends <name>text</name>.
func appendElement(dst []byte, name, text string) []byte {
	dst = append(dst, '<')
	dst = append(dst, name...)
	dst = append(dst, '>')
	dst = xmldoc.AppendText(dst, text)
	dst = append(dst, "</"...)
	dst = append(dst, name...)
	return append(dst, '>')
}

// DecodeEnvelope parses the wire form back into an Envelope. It reads r to
// the end once (a read error, such as the server's body cap, is returned
// wrapped) and parses the bytes in one pass.
// seclint:source
func DecodeEnvelope(r io.Reader) (*Envelope, error) {
	d, err := xmldoc.Parse("envelope", r)
	if err != nil {
		return nil, fmt.Errorf("wsa: %w", err)
	}
	if d.Root.Name != "envelope" {
		return nil, fmt.Errorf("wsa: root element %q, want envelope", d.Root.Name)
	}
	e := &Envelope{}
	if h := d.Root.Child("header"); h != nil {
		if op := h.Child("operation"); op != nil {
			e.Operation = op.Text()
		}
		if sd := h.Child("sender"); sd != nil {
			e.Sender = sd.Text()
		}
		for _, c := range h.Children {
			if c.Kind == xmldoc.KindElement && c.Name == "role" {
				e.Roles = append(e.Roles, c.Text())
			}
		}
	}
	if body := d.Root.Child("body"); body != nil {
		if f := body.Child("fault"); f != nil {
			e.Fault = f.Text()
		}
		for _, c := range body.Children {
			if c.Kind != xmldoc.KindElement || c.Name == "fault" {
				continue
			}
			// The first payload element becomes the body document; the
			// envelope's own tree is not used again.
			e.Body = xmldoc.Detach("body", c)
			break
		}
	}
	if e.Operation == "" && e.Fault == "" {
		return nil, fmt.Errorf("wsa: envelope missing operation")
	}
	return e, nil
}

// ServiceDescription plays WSDL's role: an XML description of a service
// interface — its operations and their message shapes — that a provider
// publishes and a requestor can fetch.
type ServiceDescription struct {
	Name       string
	Endpoint   string
	Operations []OperationDesc
}

// OperationDesc describes one operation of a service.
type OperationDesc struct {
	Name   string
	Input  string // root element name of the request body
	Output string // root element name of the response body
}

// ToXML renders the description document.
func (sd *ServiceDescription) ToXML() *xmldoc.Document {
	b := xmldoc.NewBuilder("description:"+sd.Name, "description")
	b.Attrib("name", sd.Name)
	b.Attrib("endpoint", sd.Endpoint)
	for _, op := range sd.Operations {
		b.Begin("operation").
			Attrib("name", op.Name).
			Attrib("input", op.Input).
			Attrib("output", op.Output).
			End()
	}
	return b.Freeze()
}

// DescriptionFromXML parses a description document.
func DescriptionFromXML(d *xmldoc.Document) (*ServiceDescription, error) {
	if d == nil || d.Root == nil || d.Root.Name != "description" {
		return nil, fmt.Errorf("wsa: not a service description")
	}
	sd := &ServiceDescription{}
	sd.Name, _ = d.Root.Attr("name")
	sd.Endpoint, _ = d.Root.Attr("endpoint")
	for _, c := range d.Root.ElementChildren() {
		if c.Name != "operation" {
			continue
		}
		var op OperationDesc
		op.Name, _ = c.Attr("name")
		op.Input, _ = c.Attr("input")
		op.Output, _ = c.Attr("output")
		sd.Operations = append(sd.Operations, op)
	}
	if sd.Name == "" {
		return nil, fmt.Errorf("wsa: description missing name")
	}
	return sd, nil
}
