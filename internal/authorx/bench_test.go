package authorx

import (
	"fmt"
	"testing"

	"webdbsec/internal/accessctl"
	"webdbsec/internal/policy"
	"webdbsec/internal/synth"
	"webdbsec/internal/wenc"
	"webdbsec/internal/xmldoc"
)

// BenchmarkBroadcastVsPerSubscriber is ablation A3: encrypting a document
// once per policy configuration and handing each subscriber its keys,
// against computing and sealing every subscriber's view separately —
// O(subscribers) ciphertexts per document version.
func BenchmarkBroadcastVsPerSubscriber(b *testing.B) {
	store := xmldoc.NewStore()
	doc := synth.Hospital(22, 100)
	store.Put(doc)
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name: "staff", Subject: policy.SubjectSpec{Roles: []string{"staff"}},
		Object: policy.ObjectSpec{Doc: doc.Name},
		Priv:   policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	base.MustAdd(&policy.Policy{
		Name: "no-ssn", Subject: policy.SubjectSpec{NotRoles: []string{"hr"}},
		Object: policy.ObjectSpec{Doc: doc.Name, Path: "//ssn"},
		Priv:   policy.Read, Sign: policy.Deny, Prop: policy.Cascade,
	})
	eng := accessctl.NewEngine(store, base)
	for _, subscribers := range []int{10, 100} {
		subs := make([]*policy.Subject, subscribers)
		for i := range subs {
			roles := []string{"staff"}
			if i%5 == 0 {
				roles = append(roles, "hr")
			}
			subs[i] = &policy.Subject{ID: fmt.Sprintf("s%d", i), Roles: roles}
		}
		b.Run(fmt.Sprintf("broadcast/subs=%d", subscribers), func(b *testing.B) {
			pub := NewPublisher(eng)
			for i := 0; i < b.N; i++ {
				if _, err := pub.Encrypt(doc.Name); err != nil {
					b.Fatal(err)
				}
				for _, s := range subs {
					if _, err := pub.GrantKeys(doc.Name, s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("per-subscriber/subs=%d", subscribers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range subs {
					v := eng.View(doc.Name, s, policy.Read)
					if v == nil {
						continue
					}
					if _, err := wenc.Seal(wenc.MustNewKey(), []byte(v.Canonical()), nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
