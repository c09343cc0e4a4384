package inference

import (
	"fmt"
	"math/rand"
	"testing"

	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
)

// fixture: name ∧ zip → identity; identity ∧ disease → condition;
// {condition} is private, {identity} is semi-private for auditors.
func fixture(t *testing.T) *Controller {
	t.Helper()
	pc := privacy.NewController()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(pc.Add(&privacy.Constraint{
		Name: "condition-private", Attrs: []string{"condition"}, Class: privacy.Private,
	}))
	must(pc.Add(&privacy.Constraint{
		Name: "identity-semiprivate", Attrs: []string{"identity"},
		Class: privacy.SemiPrivate, NeedToKnow: []string{"auditor"},
	}))
	ic := NewController(pc)
	must(ic.AddRule(&Rule{Name: "reid", Body: []string{"name", "zip"}, Head: "identity"}))
	must(ic.AddRule(&Rule{Name: "diag", Body: []string{"identity", "disease"}, Head: "condition"}))
	return ic
}

func TestRuleValidation(t *testing.T) {
	ic := NewController(privacy.NewController())
	if err := ic.AddRule(&Rule{Name: "bad", Head: "x"}); err == nil {
		t.Error("rule without body accepted")
	}
	if err := ic.AddRule(&Rule{Name: "bad", Body: []string{"a"}}); err == nil {
		t.Error("rule without head accepted")
	}
}

func TestSingleQueryInferenceBlocked(t *testing.T) {
	ic := fixture(t)
	s := &policy.Subject{ID: "snoop"}
	// name+zip alone derives identity (semi-private, snoop lacks need to
	// know) — blocked.
	d := ic.Check(s, []string{"name", "zip"})
	if d.Allowed {
		t.Fatal("re-identification query allowed")
	}
	if len(d.Derived) != 1 || d.Derived[0] != "identity" {
		t.Errorf("derived = %v", d.Derived)
	}
	if d.Violation != "identity-semiprivate" {
		t.Errorf("violation = %q", d.Violation)
	}
	// A refused query leaves no trace in the history.
	if len(ic.History("snoop")) != 0 {
		t.Errorf("history after refusal = %v", ic.History("snoop"))
	}
}

func TestMultiQueryChannelBlocked(t *testing.T) {
	ic := fixture(t)
	auditor := &policy.Subject{ID: "aud", Roles: []string{"auditor"}}
	// Auditor may learn identity (need to know).
	if d := ic.Check(auditor, []string{"name", "zip"}); !d.Allowed {
		t.Fatalf("auditor blocked on identity derivation: %+v", d)
	}
	// But combining the remembered identity with disease now derives the
	// private condition — the second query must be refused.
	d := ic.Check(auditor, []string{"disease"})
	if d.Allowed {
		t.Fatal("multi-query inference channel not caught")
	}
	if d.Violation != "condition-private" {
		t.Errorf("violation = %q", d.Violation)
	}
}

func TestIndependentSubjectsIndependentHistories(t *testing.T) {
	ic := fixture(t)
	a := &policy.Subject{ID: "a", Roles: []string{"auditor"}}
	b := &policy.Subject{ID: "b", Roles: []string{"auditor"}}
	if d := ic.Check(a, []string{"name", "zip"}); !d.Allowed {
		t.Fatal("a blocked")
	}
	// b has no history: disease alone is harmless for b.
	if d := ic.Check(b, []string{"disease"}); !d.Allowed {
		t.Fatalf("b blocked without history: %+v", d)
	}
	// a is blocked on the same query.
	if d := ic.Check(a, []string{"disease"}); d.Allowed {
		t.Fatal("a allowed despite history")
	}
}

func TestForgetResetsChannel(t *testing.T) {
	ic := fixture(t)
	aud := &policy.Subject{ID: "aud", Roles: []string{"auditor"}}
	ic.Check(aud, []string{"name", "zip"})
	ic.Forget("aud")
	if d := ic.Check(aud, []string{"disease"}); !d.Allowed {
		t.Fatalf("blocked after Forget: %+v", d)
	}
}

func TestHarmlessQueriesFlow(t *testing.T) {
	ic := fixture(t)
	s := &policy.Subject{ID: "user"}
	for _, attrs := range [][]string{
		{"age"}, {"zip"}, {"disease"}, {"age", "zip"},
	} {
		if d := ic.Check(s, attrs); !d.Allowed {
			t.Errorf("harmless query %v blocked: %+v", attrs, d)
		}
	}
	// name now completes {name, zip} → identity: blocked.
	if d := ic.Check(s, []string{"name"}); d.Allowed {
		t.Error("completion of inference channel allowed")
	}
}

func TestChainedRulesClose(t *testing.T) {
	pc := privacy.NewController()
	pc.Add(&privacy.Constraint{Name: "deep-private", Attrs: []string{"d"}, Class: privacy.Private})
	ic := NewController(pc)
	ic.AddRule(&Rule{Name: "r1", Body: []string{"a"}, Head: "b"})
	ic.AddRule(&Rule{Name: "r2", Body: []string{"b"}, Head: "c"})
	ic.AddRule(&Rule{Name: "r3", Body: []string{"c"}, Head: "d"})
	s := &policy.Subject{ID: "x"}
	d := ic.Check(s, []string{"a"})
	if d.Allowed {
		t.Fatal("transitive chain not closed")
	}
	if len(d.Derived) != 3 {
		t.Errorf("derived = %v", d.Derived)
	}
}

func TestHistoryAccumulatesClosure(t *testing.T) {
	ic := fixture(t)
	aud := &policy.Subject{ID: "aud", Roles: []string{"auditor"}}
	ic.Check(aud, []string{"name", "zip"})
	h := ic.History("aud")
	want := []string{"identity", "name", "zip"}
	if fmt.Sprint(h) != fmt.Sprint(want) {
		t.Errorf("history = %v, want %v", h, want)
	}
}

func TestRulesListing(t *testing.T) {
	ic := fixture(t)
	rs := ic.Rules()
	if len(rs) != 2 || rs[0] != "diag" {
		t.Errorf("rules = %v", rs)
	}
}

func TestCaseInsensitiveAttributes(t *testing.T) {
	ic := fixture(t)
	s := &policy.Subject{ID: "s"}
	if d := ic.Check(s, []string{"Name", "ZIP"}); d.Allowed {
		t.Error("case variation bypassed the controller")
	}
}

// TestPlantedChannelsExactlyBlocked is E8's count half: 200 subjects send
// three queries each, interleaved in a seeded random order, under the
// re-identification rule name ∧ zip → identity, 100 unrelated rules and
// {identity, disease} private. The 100 odd subjects build the channel
// (name, zip), (age), (disease); the even ones ask (age), (zip), (income).
// Exactly the 100 planted final (disease) queries are refused: every
// channel is caught and none of the 500 other queries is.
func TestPlantedChannelsExactlyBlocked(t *testing.T) {
	pc := privacy.NewController()
	if err := pc.Add(&privacy.Constraint{Name: "c", Attrs: []string{"identity", "disease"}, Class: privacy.Private}); err != nil {
		t.Fatal(err)
	}
	ic := NewController(pc)
	rules := []*Rule{{Name: "reid", Body: []string{"name", "zip"}, Head: "identity"}}
	for i := 0; i < 100; i++ {
		rules = append(rules, &Rule{Name: fmt.Sprintf("r%d", i), Body: []string{fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1)}, Head: fmt.Sprintf("d%d", i)})
	}
	for _, r := range rules {
		if err := ic.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	const subjects = 200
	var stream []int // subject IDs; a subject's k-th entry is its k-th query
	for s := 0; s < subjects; s++ {
		stream = append(stream, s, s, s)
	}
	rand.New(rand.NewSource(8)).Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	sent := make([]int, subjects)
	blocked := 0
	for _, s := range stream {
		queries := [][]string{{"age"}, {"zip"}, {"income"}}
		if s%2 == 1 {
			queries = [][]string{{"name", "zip"}, {"age"}, {"disease"}}
		}
		q := queries[sent[s]]
		sent[s]++
		allowed := ic.Check(&policy.Subject{ID: fmt.Sprintf("subj%d", s)}, q).Allowed
		if !allowed {
			blocked++
		}
		if planted := s%2 == 1 && sent[s] == 3; allowed == planted {
			t.Errorf("subject %d query %d %v: allowed=%v", s, sent[s], q, allowed)
		}
	}
	if len(stream) != 600 || blocked != 100 {
		t.Fatalf("%d queries, %d blocked; want 600 and 100", len(stream), blocked)
	}
}
