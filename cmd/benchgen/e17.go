package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"webdbsec/internal/accessctl"
	"webdbsec/internal/credential"
	"webdbsec/internal/decisioncache"
	"webdbsec/internal/policy"
	"webdbsec/internal/synth"
	"webdbsec/internal/xmldoc"
)

// e17Engine builds the E1-style workload (hospital document, n role-keyed
// policies) and returns the plain engine plus the repeat subject.
func e17Engine(n int) (*accessctl.Engine, *policy.Subject) {
	store := xmldoc.NewStore()
	doc := synth.Hospital(1, 50)
	store.Put(doc)
	base := policy.NewBase(nil)
	for i := 0; i < n; i++ {
		base.MustAdd(&policy.Policy{
			Name:    fmt.Sprintf("p%d", i),
			Subject: policy.SubjectSpec{Roles: []string{fmt.Sprintf("role%d", i%10)}},
			Object:  policy.ObjectSpec{Doc: doc.Name, Path: fmt.Sprintf("/hospital/patient[@ward='%d']", i%8)},
			Priv:    policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
		})
	}
	w := credential.NewWallet("user7")
	w.Add(&credential.Credential{Type: "staff", Subject: "user7", Attrs: map[string]string{"ward": "3"}})
	return accessctl.NewEngine(store, base), &policy.Subject{ID: "user7", Roles: []string{"role3"}, Wallet: w}
}

// e17Measurement is one policy-count row of the E17 experiment.
type e17Measurement struct {
	Policies    int     `json:"policies"`
	UncachedNs  int64   `json:"uncached_ns"`
	ColdNs      int64   `json:"cold_ns"`
	WarmNs      int64   `json:"warm_ns"`
	Speedup     float64 `json:"speedup_warm_vs_uncached"`
	ZipfHitRate float64 `json:"zipf_hit_rate"`
}

// e17Measure produces the row for one policy count: uncached decision
// latency, first-sight latency (a never-seen identity per request — a miss
// while the cache keyed on subject fingerprints, a hit of the identity's
// role class now that it keys on the applicable policy list), warm-hit
// latency (one subject repeating), and the labels-cache hit rate under a
// Zipf subject mix an order of magnitude larger than the cache.
func e17Measure(n int) e17Measurement {
	eng, s := e17Engine(n)
	doc, _ := eng.Store().Get("hospital-50.xml")

	uncached := measure(20, func() { eng.Labels(doc, s, policy.Read) })

	coldEng := decisioncache.NewEngine(e17EngineOnly(n), 1<<17)
	coldDoc, _ := coldEng.Store().Get("hospital-50.xml")
	i := 0
	cold := measure(20, func() {
		coldEng.Labels(coldDoc, &policy.Subject{ID: fmt.Sprintf("u%d", i), Roles: []string{"role3"}}, policy.Read)
		i++
	})

	warmEng := decisioncache.NewEngine(e17EngineOnly(n), 1<<16)
	warmDoc, _ := warmEng.Store().Get("hospital-50.xml")
	warmEng.Labels(warmDoc, s, policy.Read)
	warm := measure(1000, func() { warmEng.Labels(warmDoc, s, policy.Read) })

	zipfEng := decisioncache.NewEngine(e17EngineOnly(n), 1024)
	zipfDoc, _ := zipfEng.Store().Get("hospital-50.xml")
	const nSubjects = 10000
	subjects := make([]*policy.Subject, nSubjects)
	for i := range subjects {
		subjects[i] = &policy.Subject{ID: fmt.Sprintf("user%d", i), Roles: []string{fmt.Sprintf("role%d", i%10)}}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(17)), 1.3, 1, nSubjects-1)
	for i := 0; i < 1<<15; i++ {
		zipfEng.Labels(zipfDoc, subjects[zipf.Uint64()], policy.Read)
	}
	hitRate := zipfEng.Stats().Labels.HitRate()

	return e17Measurement{
		Policies:    n,
		UncachedNs:  uncached.Nanoseconds(),
		ColdNs:      cold.Nanoseconds(),
		WarmNs:      warm.Nanoseconds(),
		Speedup:     float64(uncached.Nanoseconds()) / float64(warm.Nanoseconds()),
		ZipfHitRate: hitRate,
	}
}

func e17EngineOnly(n int) *accessctl.Engine {
	eng, _ := e17Engine(n)
	return eng
}

func runE17(quick bool) {
	counts := []int{10, 100, 1000}
	if quick {
		counts = []int{10, 100}
	}
	t := &table{header: []string{"policies", "uncached", "cold-miss", "warm-hit", "speedup", "zipf-hit-rate"}}
	for _, n := range counts {
		m := e17Measure(n)
		t.add(fmt.Sprint(n),
			dur(time.Duration(m.UncachedNs)),
			dur(time.Duration(m.ColdNs)),
			dur(time.Duration(m.WarmNs)),
			fmt.Sprintf("%.0fx", m.Speedup),
			fmt.Sprintf("%.2f", m.ZipfHitRate))
	}
	t.print()
}

// snapshot is the before/after record -snapshot writes: "before" is the
// uncached pipeline this PR started from, "after" the cached one.
type snapshot struct {
	Experiment  string           `json:"experiment"`
	Description string           `json:"description"`
	Rows        []e17Measurement `json:"rows"`
}

// writeSnapshot measures E17 and writes the JSON record to path.
func writeSnapshot(path string, quick bool) error {
	counts := []int{10, 100, 1000}
	if quick {
		counts = []int{10, 100}
	}
	snap := snapshot{
		Experiment:  "E17",
		Description: "decision latency before (uncached_ns) and after (warm_ns) the decision cache; cold_ns bounds the miss overhead",
	}
	for _, n := range counts {
		snap.Rows = append(snap.Rows, e17Measure(n))
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
