// Package privacy implements privacy-constraint processing after
// Thuraisingham [13]: "privacy constraints determine which patterns are
// private and to what extent. For example, suppose one could extract the
// names and healthcare records. If we have a privacy constraint that
// states that names and healthcare records are private then this
// information is not released to the general public. If the information is
// semi-private, then it is released to those who have a need to know."
// (§3.3)
//
// A constraint classifies an attribute combination as Public, SemiPrivate
// or Private. The Controller is consulted by release points — the secure
// database's result filter and the mining release gate — and decides per
// requestor: Public flows to everyone, SemiPrivate only to need-to-know
// subjects, Private to no external requestor.
package privacy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"webdbsec/internal/mining"
	"webdbsec/internal/policy"
	"webdbsec/internal/reldb"
)

// Class is a privacy classification.
type Class int

// Classes, ordered from least to most restrictive.
const (
	Public Class = iota
	SemiPrivate
	Private
)

func (c Class) String() string {
	switch c {
	case Public:
		return "public"
	case SemiPrivate:
		return "semi-private"
	case Private:
		return "private"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Constraint classifies every release containing ALL of Attrs (a
// combination — the classic example being {name, disease}: either alone
// may be public while the combination is private).
type Constraint struct {
	Name  string
	Attrs []string
	Class Class
	// NeedToKnow lists the roles that may receive SemiPrivate matches.
	// Ignored for Public and Private.
	NeedToKnow []string
}

// Controller holds the privacy constraints of a data source. Methods are
// safe for concurrent use.
type Controller struct {
	mu          sync.RWMutex
	constraints []*Constraint
}

// NewController returns an empty controller (everything Public).
func NewController() *Controller { return &Controller{} }

// Add installs a constraint.
func (c *Controller) Add(con *Constraint) error {
	if len(con.Attrs) == 0 {
		return fmt.Errorf("privacy: constraint %q has no attributes", con.Name)
	}
	if con.Class == SemiPrivate && len(con.NeedToKnow) == 0 {
		return fmt.Errorf("privacy: semi-private constraint %q needs a need-to-know list", con.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.constraints = append(c.constraints, con)
	return nil
}

// Classify returns the strictest class over all constraints whose
// attribute combination is fully contained in attrs, together with the
// matching constraint (nil for Public-by-default).
func (c *Controller) Classify(attrs []string) (Class, *Constraint) {
	set := toSet(attrs)
	c.mu.RLock()
	defer c.mu.RUnlock()
	cls := Public
	var hit *Constraint
	for _, con := range c.constraints {
		if !containsAllAttrs(set, con.Attrs) {
			continue
		}
		if con.Class > cls {
			cls = con.Class
			hit = con
		}
	}
	return cls, hit
}

// MayRelease decides whether the attribute combination may be released to
// the subject: Public always; SemiPrivate when the subject holds a
// need-to-know role of EVERY matching semi-private constraint; Private
// never.
func (c *Controller) MayRelease(s *policy.Subject, attrs []string) bool {
	set := toSet(attrs)
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, con := range c.constraints {
		if !containsAllAttrs(set, con.Attrs) {
			continue
		}
		switch con.Class {
		case Private:
			return false
		case SemiPrivate:
			if s == nil || !hasAnyRole(s, con.NeedToKnow) {
				return false
			}
		}
	}
	return true
}

// FilterResult enforces the constraints on a query result: any column
// whose attribute, combined with the attributes already released, violates
// a constraint for this subject is masked to NULL, greedily dropping the
// *later* columns of violating combinations so the maximal prefix survives.
// A column's attribute is its source attribute (res.Attributes): the column
// itself in a row result, col for an aggregate F(col) — which releases
// something about col — and none for COUNT(*). The decision reads the
// attributes only, so it is taken before any row is: a masked column is
// hidden (Result.Hide), on a bound result as a column the subject's column
// policies hide. It returns the masked column names.
func (c *Controller) FilterResult(s *policy.Subject, res *reldb.Result) []string {
	released := []string{}
	masked := []string{}
	for i, attr := range res.Attributes() {
		if attr == "" {
			continue
		}
		trial := append(append([]string(nil), released...), attr)
		if c.MayRelease(s, trial) {
			released = trial
			continue
		}
		masked = append(masked, res.Columns[i])
		res.Hide(i)
	}
	return masked
}

// ReleasePatterns filters mined itemsets before they leave the miner: a
// pattern whose item names form a protected combination is withheld from
// subjects without the need to know. itemName maps item ids to attribute
// names.
func (c *Controller) ReleasePatterns(s *policy.Subject, patterns []mining.FrequentItemset, itemName func(int) string) (released, withheld []mining.FrequentItemset) {
	for _, p := range patterns {
		attrs := make([]string, len(p.Items))
		for i, it := range p.Items {
			attrs[i] = itemName(it)
		}
		if c.MayRelease(s, attrs) {
			released = append(released, p)
		} else {
			withheld = append(withheld, p)
		}
	}
	return released, withheld
}

// Constraints returns the installed constraint names, sorted.
func (c *Controller) Constraints() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.constraints))
	for _, con := range c.constraints {
		out = append(out, con.Name)
	}
	sort.Strings(out)
	return out
}

func toSet(attrs []string) map[string]bool {
	m := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		m[strings.ToLower(a)] = true
	}
	return m
}

func containsAllAttrs(set map[string]bool, attrs []string) bool {
	for _, a := range attrs {
		if !set[strings.ToLower(a)] {
			return false
		}
	}
	return true
}

func hasAnyRole(s *policy.Subject, roles []string) bool {
	for _, r := range roles {
		if s.HasRole(r) {
			return true
		}
	}
	return false
}
