package decisioncache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"webdbsec/internal/accessctl"
	"webdbsec/internal/policy"
	"webdbsec/internal/xmldoc"
)

// hospitalDoc builds a small ward document; seed varies the content so
// successive Puts of the same name produce genuinely different trees.
func hospitalDoc(name string, patients, seed int) *xmldoc.Document {
	b := xmldoc.NewBuilder(name, "hospital")
	for i := 0; i < patients; i++ {
		b.Begin("patient")
		b.Attrib("ward", fmt.Sprintf("%d", (i+seed)%4))
		b.Element("name", fmt.Sprintf("p%d-%d", i, seed))
		b.Element("disease", "flu")
		b.End()
	}
	return b.Freeze()
}

func wardPolicy(name, role string, ward int, sign policy.Sign) *policy.Policy {
	return &policy.Policy{
		Name:    name,
		Subject: policy.SubjectSpec{Roles: []string{role}},
		Object:  policy.ObjectSpec{Doc: "h.xml", Path: fmt.Sprintf("//patient[@ward='%d']", ward)},
		Priv:    policy.Read,
		Sign:    sign,
		Prop:    policy.Cascade,
	}
}

// testEngines returns a cached engine and a SEPARATE plain engine over the
// same store and base, so every cached answer can be compared with a
// from-scratch computation.
func testEngines(t *testing.T) (*Engine, *accessctl.Engine, *xmldoc.Store, *policy.Base) {
	t.Helper()
	store := xmldoc.NewStore()
	store.Put(hospitalDoc("h.xml", 12, 0))
	base := policy.NewBase(nil)
	base.MustAdd(wardPolicy("w0", "staff", 0, policy.Permit))
	base.MustAdd(wardPolicy("w1", "staff", 1, policy.Permit))
	base.MustAdd(&policy.Policy{
		Name:    "deny-disease",
		Subject: policy.SubjectSpec{NotRoles: []string{"physician"}},
		Object:  policy.ObjectSpec{Doc: "h.xml", Path: "//disease"},
		Priv:    policy.Read,
		Sign:    policy.Deny,
		Prop:    policy.Cascade,
	})
	return NewEngine(accessctl.NewEngine(store, base), 256), accessctl.NewEngine(store, base), store, base
}

func equalLabels(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalViews(a, b *xmldoc.Document) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Canonical() == b.Canonical()
}

func TestLabelsMatchUncached(t *testing.T) {
	cached, plain, store, _ := testEngines(t)
	doc, _ := store.Get("h.xml")
	subjects := []*policy.Subject{
		{ID: "a", Roles: []string{"staff"}},
		{ID: "b", Roles: []string{"physician", "staff"}},
		{ID: "c"},
	}
	for _, s := range subjects {
		for pass := 0; pass < 2; pass++ { // pass 1 is served from cache
			got := cached.Labels(doc, s, policy.Read)
			want := plain.Labels(doc, s, policy.Read)
			if !equalLabels(got, want) {
				t.Errorf("subject %s pass %d: cached labels differ from uncached", s.ID, pass)
			}
		}
	}
	if st := cached.Stats(); st.Labels.Hits == 0 {
		t.Error("second passes did not hit the labels cache")
	}
}

func TestLabelsReturnsCopy(t *testing.T) {
	cached, _, store, _ := testEngines(t)
	doc, _ := store.Get("h.xml")
	s := &policy.Subject{ID: "a", Roles: []string{"staff"}}
	l1 := cached.Labels(doc, s, policy.Read)
	for i := range l1 {
		l1[i] = !l1[i] // caller scribbles on its copy
	}
	l2 := cached.Labels(doc, s, policy.Read)
	if equalLabels(l1, l2) {
		t.Fatal("mutating a returned labels slice corrupted the cached entry")
	}
}

func TestViewCachedIncludingDenials(t *testing.T) {
	cached, plain, _, _ := testEngines(t)
	granted := &policy.Subject{ID: "a", Roles: []string{"staff"}}
	denied := &policy.Subject{ID: "z"}
	for pass := 0; pass < 2; pass++ {
		if !equalViews(cached.View("h.xml", granted, policy.Read), plain.View("h.xml", granted, policy.Read)) {
			t.Errorf("pass %d: cached view differs from uncached", pass)
		}
		if v := cached.View("h.xml", denied, policy.Read); v != nil {
			t.Errorf("pass %d: denied subject got a view", pass)
		}
	}
	st := cached.Stats()
	if st.Views.Hits < 2 {
		t.Errorf("views cache hits = %d, want >= 2 (grant and denial both cached)", st.Views.Hits)
	}
}

func TestCheckMatchesUncached(t *testing.T) {
	cached, plain, _, _ := testEngines(t)
	subjects := []*policy.Subject{
		{ID: "a", Roles: []string{"staff"}},
		{ID: "b", Roles: []string{"physician", "staff"}},
	}
	paths := []string{"//patient[@ward='0']", "//disease", "/hospital"}
	for _, s := range subjects {
		for _, p := range paths {
			for pass := 0; pass < 2; pass++ {
				got := cached.Check("h.xml", p, s, policy.Read)
				want := plain.Check("h.xml", p, s, policy.Read)
				if got != want {
					t.Errorf("Check(%s, %s) = %v, want %v", p, s.ID, got, want)
				}
			}
		}
	}
	if st := cached.Stats(); st.Paths.Hits == 0 {
		t.Error("repeated Check never hit the compiled-path cache")
	}
}

func TestInvalidationOnBaseMutation(t *testing.T) {
	cached, plain, store, base := testEngines(t)
	doc, _ := store.Get("h.xml")
	s := &policy.Subject{ID: "a", Roles: []string{"staff"}}
	before := cached.Labels(doc, s, policy.Read)

	// A deny at the SAME specificity as the w0 permit: conflict resolution
	// is most-specific-wins with deny breaking ties, so ward 0 flips to
	// denied while ward 1 stays permitted.
	base.MustAdd(wardPolicy("revoke-w0", "staff", 0, policy.Deny))
	after := cached.Labels(doc, s, policy.Read)
	if equalLabels(before, after) {
		t.Fatal("cache served pre-mutation labels after a policy Add")
	}
	if !equalLabels(after, plain.Labels(doc, s, policy.Read)) {
		t.Fatal("post-mutation cached labels differ from uncached")
	}

	base.Remove("revoke-w0")
	restored := cached.Labels(doc, s, policy.Read)
	if !equalLabels(restored, before) {
		t.Fatal("cache did not see the policy Remove")
	}
}

func TestInvalidationOnStorePut(t *testing.T) {
	cached, plain, store, _ := testEngines(t)
	s := &policy.Subject{ID: "a", Roles: []string{"staff"}}
	v1 := cached.View("h.xml", s, policy.Read)
	store.Put(hospitalDoc("h.xml", 12, 7)) // new content, same name
	v2 := cached.View("h.xml", s, policy.Read)
	if equalViews(v1, v2) {
		t.Fatal("cache served the old document's view after Put")
	}
	if !equalViews(v2, plain.View("h.xml", s, policy.Read)) {
		t.Fatal("post-Put cached view differs from uncached")
	}
}

func TestDetachedDocumentBypassesCache(t *testing.T) {
	cached, plain, store, _ := testEngines(t)
	old, _ := store.Get("h.xml")
	store.Put(hospitalDoc("h.xml", 12, 3))
	s := &policy.Subject{ID: "a", Roles: []string{"staff"}}
	// Labels of the detached old version must be computed against the old
	// tree, not aliased onto the current document's cache entries.
	got := cached.Labels(old, s, policy.Read)
	want := plain.Labels(old, s, policy.Read)
	if !equalLabels(got, want) {
		t.Fatal("detached document decision differs from uncached")
	}
}

func TestConfigurationsMemoized(t *testing.T) {
	cached, plain, store, base := testEngines(t)
	doc, _ := store.Get("h.xml")
	c1 := cached.Configurations(doc)
	c2 := cached.Configurations(doc)
	if c1 != c2 {
		t.Fatal("unchanged generations should return the shared cached partition")
	}
	if c1.NumClasses != plain.Configurations(doc).NumClasses {
		t.Fatal("cached partition differs from uncached")
	}
	base.MustAdd(wardPolicy("w2", "staff", 2, policy.Permit))
	c3 := cached.Configurations(doc)
	if c3 == c1 {
		t.Fatal("partition not recomputed after base mutation")
	}
	if c3.NumClasses != plain.Configurations(doc).NumClasses {
		t.Fatal("post-mutation cached partition differs from uncached")
	}
}

// TestPropertyCachedEqualsUncached drives a random interleaving of
// mutations and decisions and checks, at every step, that the cached
// answers are bit-identical to a from-scratch computation — the PR's
// acceptance property.
func TestPropertyCachedEqualsUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	store := xmldoc.NewStore()
	store.Put(hospitalDoc("h.xml", 10, 0))
	store.Put(hospitalDoc("g.xml", 6, 1))
	store.AddToSet("records", "h.xml")
	store.AddToSet("records", "g.xml")
	base := policy.NewBase(nil)
	cached := NewEngine(accessctl.NewEngine(store, base), 128)
	plain := accessctl.NewEngine(store, base)

	subjects := []*policy.Subject{
		{ID: "a", Roles: []string{"staff"}},
		{ID: "b", Roles: []string{"physician"}},
		{ID: "c", Roles: []string{"staff", "physician"}},
		{ID: "d"},
	}
	docs := []string{"h.xml", "g.xml"}
	nextPol := 0
	var live []string

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 2: // add a policy (doc-, set- or wildcard-scoped)
			p := &policy.Policy{
				Name:    fmt.Sprintf("r%d", nextPol),
				Subject: policy.SubjectSpec{Roles: []string{[]string{"staff", "physician"}[rng.Intn(2)]}},
				Priv:    policy.Read,
				Sign:    []policy.Sign{policy.Permit, policy.Permit, policy.Deny}[rng.Intn(3)],
				Prop:    policy.Cascade,
			}
			switch rng.Intn(4) {
			case 0:
				p.Object = policy.ObjectSpec{Doc: "*"}
			case 1:
				p.Object = policy.ObjectSpec{Set: "records", Path: "//disease"}
			default:
				p.Object = policy.ObjectSpec{Doc: docs[rng.Intn(2)], Path: fmt.Sprintf("//patient[@ward='%d']", rng.Intn(4))}
			}
			nextPol++
			if err := base.Add(p); err != nil {
				t.Fatal(err)
			}
			live = append(live, p.Name)
		case op == 2 && len(live) > 0: // remove a random policy
			i := rng.Intn(len(live))
			base.Remove(live[i])
			live = append(live[:i], live[i+1:]...)
		case op == 3: // replace a document
			name := docs[rng.Intn(2)]
			store.Put(hospitalDoc(name, 6+rng.Intn(8), step))
		default: // decide, and compare against from-scratch
			name := docs[rng.Intn(2)]
			s := subjects[rng.Intn(len(subjects))]
			doc, _ := store.Get(name)
			if !equalLabels(cached.Labels(doc, s, policy.Read), plain.Labels(doc, s, policy.Read)) {
				t.Fatalf("step %d: cached labels diverged for %s on %s", step, s.ID, name)
			}
			if !equalViews(cached.View(name, s, policy.Read), plain.View(name, s, policy.Read)) {
				t.Fatalf("step %d: cached view diverged for %s on %s", step, s.ID, name)
			}
		}
	}
	st := cached.Stats()
	if st.Labels.Hits == 0 || st.Views.Hits == 0 {
		t.Errorf("property run never hit the cache: %+v", st)
	}
}

// TestConcurrentSnapshotCachedEqualsUncached extends the cached≡uncached
// property to racing readers on pinned snapshots. Writers churn document
// versions (one writer per name, so each name's generation sequence is
// the serial order of its Puts and generation g's content is
// reconstructible); readers pin store snapshots and decide through the
// cache, recording (name, docGen, snapshot content, labels). Afterwards
// every observation is replayed serially: the snapshot content must be
// exactly the state after the g-th Put — a consistent prefix of the
// mutation history, never a torn or future state — and the cached labels
// must be bit-identical to a from-scratch direct-path computation over
// that reconstructed version. Run under -race by make check.
func TestConcurrentSnapshotCachedEqualsUncached(t *testing.T) {
	store := xmldoc.NewStore()
	base := policy.NewBase(nil)
	for ward := 0; ward < 2; ward++ {
		base.MustAdd(&policy.Policy{
			Name:    fmt.Sprintf("w%d", ward),
			Subject: policy.SubjectSpec{Roles: []string{"staff"}},
			Object:  policy.ObjectSpec{Doc: "*", Path: fmt.Sprintf("//patient[@ward='%d']", ward)},
			Priv:    policy.Read,
			Sign:    policy.Permit,
			Prop:    policy.Cascade,
		})
	}
	base.MustAdd(&policy.Policy{
		Name:    "deny-disease",
		Subject: policy.SubjectSpec{NotRoles: []string{"physician"}},
		Object:  policy.ObjectSpec{Doc: "*", Path: "//disease"},
		Priv:    policy.Read,
		Sign:    policy.Deny,
		Prop:    policy.Cascade,
	})
	cached := NewEngine(accessctl.NewEngine(store, base), 128)
	s := &policy.Subject{ID: "a", Roles: []string{"staff"}}

	docs := []string{"h.xml", "g.xml"}
	const versions = 50
	// versionDoc is the deterministic content of name at document
	// generation g — writers build it, the serial replay rebuilds it.
	versionDoc := func(name string, g int) *xmldoc.Document {
		return hospitalDoc(name, 4+g%5, g)
	}

	type obs struct {
		name   string
		docGen uint64
		canon  string
		labels []bool
	}

	var writers, readers sync.WaitGroup
	for _, name := range docs {
		// Generation 1 is in place before any reader starts: on a busy
		// box the readers can otherwise finish before the first Put.
		store.Put(versionDoc(name, 1))
		writers.Add(1)
		go func(name string) {
			defer writers.Done()
			for g := 2; g <= versions; g++ {
				store.Put(versionDoc(name, g))
				runtime.Gosched() // widen the overlap window with readers
			}
		}(name)
	}
	// Readers run a fixed number of decisions: the early ones race the
	// writers mid-history, the late ones observe the final versions —
	// every observation must replay serially either way.
	observed := make([][]obs, 4)
	for r := range observed {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				name := docs[i%len(docs)]
				sn := store.Snapshot()
				doc, ok := sn.Get(name)
				if !ok {
					sn.Release()
					continue
				}
				o := obs{name: name, docGen: sn.DocGeneration(name), canon: doc.Canonical()}
				sn.Release()
				o.labels = cached.Labels(doc, s, policy.Read)
				observed[r] = append(observed[r], o)
			}
		}(r)
	}
	writers.Wait()
	readers.Wait()

	// Serial replay: compute, once per (name, generation) actually
	// observed, the direct-path answer over the reconstructed version.
	type key struct {
		name   string
		docGen uint64
	}
	wantCanon := make(map[key]string)
	wantLabels := make(map[key][]bool)
	verify := func(k key) {
		if _, ok := wantCanon[k]; ok {
			return
		}
		doc := versionDoc(k.name, int(k.docGen))
		vstore := xmldoc.NewStore()
		vstore.Put(doc)
		wantCanon[k] = doc.Canonical()
		wantLabels[k] = accessctl.NewEngine(vstore, base).Labels(doc, s, policy.Read)
	}
	total := 0
	for _, obsRun := range observed {
		for _, o := range obsRun {
			total++
			if o.docGen == 0 || o.docGen > versions {
				t.Fatalf("snapshot reported impossible generation %d for %s", o.docGen, o.name)
			}
			k := key{o.name, o.docGen}
			verify(k)
			if o.canon != wantCanon[k] {
				t.Fatalf("snapshot of %s@%d is not the serial state after Put %d", o.name, o.docGen, o.docGen)
			}
			if !equalLabels(o.labels, wantLabels[k]) {
				t.Fatalf("cached labels for %s@%d differ from serial direct-path execution", o.name, o.docGen)
			}
		}
	}
	if total == 0 {
		t.Fatal("readers never observed a pinned snapshot")
	}
}

// TestConcurrentMutationNoStaleGrants hammers Base.Add/Remove and
// Store.Put while readers decide through the cache, then verifies the
// linearizability contract: once a mutation has completed, no reader can
// be served a decision from before it. Run under -race by make check.
func TestConcurrentMutationNoStaleGrants(t *testing.T) {
	store := xmldoc.NewStore()
	store.Put(hospitalDoc("h.xml", 8, 0))
	base := policy.NewBase(nil)
	base.MustAdd(wardPolicy("w0", "staff", 0, policy.Permit))
	cached := NewEngine(accessctl.NewEngine(store, base), 64)
	s := &policy.Subject{ID: "a", Roles: []string{"staff"}}

	stop := make(chan struct{})
	var readers, mutators sync.WaitGroup
	// Mutators: churn policies and documents until the readers finish.
	for g := 0; g < 2; g++ {
		mutators.Add(1)
		go func(g int) {
			defer mutators.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("churn-%d-%d", g, i%4)
				base.MustAdd(wardPolicy(name, "staff", 1+i%3, policy.Permit))
				base.Remove(name)
				if i%8 == 0 {
					store.Put(hospitalDoc("h.xml", 8, i))
				}
			}
		}(g)
	}
	// Readers: decide continuously; every answer must be internally
	// consistent (right length for the doc it was computed for).
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				doc, _ := store.Get("h.xml")
				labels := cached.Labels(doc, s, policy.Read)
				if len(labels) != doc.NumNodes() && len(labels) != 0 {
					// A vector of the wrong length means a decision leaked
					// across document versions.
					cur, _ := store.Get("h.xml")
					if len(labels) != cur.NumNodes() {
						t.Errorf("labels length %d matches neither read doc (%d) nor current", len(labels), doc.NumNodes())
						return
					}
				}
				cached.View("h.xml", s, policy.Read)
			}
		}()
	}
	readers.Wait()
	close(stop)
	mutators.Wait()

	// The quiescent check: a mutation completed after all churn stopped
	// must be visible to the very next decision. Removing the only
	// remaining permit leaves the closed system with nothing granted.
	base.Remove("w0")
	doc, _ := store.Get("h.xml")
	for _, allowed := range cached.Labels(doc, s, policy.Read) {
		if allowed {
			t.Fatal("stale grant served after a completed revocation")
		}
	}
	if v := cached.View("h.xml", s, policy.Read); v != nil {
		t.Fatal("stale view served after a completed revocation")
	}
}
