package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"net"
	"sync"
	"time"

	"webdbsec/internal/accessctl"
	"webdbsec/internal/authorx"
	"webdbsec/internal/core"
	"webdbsec/internal/credential"
	"webdbsec/internal/federation"
	"webdbsec/internal/inference"
	"webdbsec/internal/merkle"
	"webdbsec/internal/mining"
	"webdbsec/internal/ontology"
	"webdbsec/internal/p3p"
	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
	"webdbsec/internal/rdf"
	"webdbsec/internal/reldb"
	"webdbsec/internal/secchan"
	"webdbsec/internal/synth"
	"webdbsec/internal/sysr"
	"webdbsec/internal/uddi"
	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

func runE1(quick bool) {
	counts := []int{10, 100, 1000}
	if quick {
		counts = []int{10, 100}
	}
	t := &table{header: []string{"qualification", "policies", "decision-time"}}
	for _, kind := range []string{"identity", "role", "credential"} {
		for _, n := range counts {
			store := xmldoc.NewStore()
			doc := synth.Hospital(1, 50)
			store.Put(doc)
			base := policy.NewBase(nil)
			for i := 0; i < n; i++ {
				p := &policy.Policy{
					Name:   fmt.Sprintf("p%d", i),
					Object: policy.ObjectSpec{Doc: doc.Name, Path: fmt.Sprintf("/hospital/patient[@ward='%d']", i%8)},
					Priv:   policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
				}
				switch kind {
				case "identity":
					p.Subject = policy.SubjectSpec{IDs: []string{fmt.Sprintf("user%d", i%100)}}
				case "role":
					p.Subject = policy.SubjectSpec{Roles: []string{fmt.Sprintf("role%d", i%10)}}
				case "credential":
					p.Subject = policy.SubjectSpec{CredExpr: credential.MustCompile(fmt.Sprintf("staff.ward = '%d'", i%8))}
				}
				base.MustAdd(p)
			}
			w := credential.NewWallet("user7")
			w.Add(&credential.Credential{Type: "staff", Subject: "user7", Attrs: map[string]string{"ward": "3"}})
			s := &policy.Subject{ID: "user7", Roles: []string{"role3"}, Wallet: w}
			eng := accessctl.NewEngine(store, base)
			d := measure(20, func() { eng.Labels(doc, s, policy.Read) })
			t.add(kind, fmt.Sprint(n), dur(d))
		}
	}
	t.print()
}

func runE2(quick bool) {
	sizes := []int{10, 100, 1000}
	if quick {
		sizes = []int{10, 100}
	}
	t := &table{header: []string{"patients", "nodes", "granularity", "view-time"}}
	for _, patients := range sizes {
		doc := synth.Hospital(2, patients)
		for _, gran := range []struct{ name, path string }{
			{"document", ""}, {"subtree", "//patient"}, {"node", "//ssn"},
		} {
			store := xmldoc.NewStore()
			store.Put(doc)
			base := policy.NewBase(nil)
			base.MustAdd(&policy.Policy{
				Name: "p", Subject: policy.SubjectSpec{IDs: []string{"*"}},
				Object: policy.ObjectSpec{Doc: doc.Name, Path: gran.path},
				Priv:   policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
			})
			eng := accessctl.NewEngine(store, base)
			s := &policy.Subject{ID: "u"}
			d := measure(10, func() { eng.View(doc.Name, s, policy.Read) })
			t.add(fmt.Sprint(patients), fmt.Sprint(doc.NumNodes()), gran.name, dur(d))
		}
	}
	t.print()
}

func runE3(quick bool) {
	configs := []int{1, 8, 64}
	if quick {
		configs = []int{1, 8}
	}
	t := &table{header: []string{"policy-configs", "keys", "encrypt-time", "trusted-view-baseline"}}
	doc := synth.Hospital(3, 200)
	baselineStore := xmldoc.NewStore()
	baselineStore.Put(doc)
	baseBase := policy.NewBase(nil)
	baseBase.MustAdd(&policy.Policy{
		Name: "all", Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object: policy.ObjectSpec{Doc: doc.Name}, Priv: policy.Read,
		Sign: policy.Permit, Prop: policy.Cascade,
	})
	baselineEng := accessctl.NewEngine(baselineStore, baseBase)
	s := &policy.Subject{ID: "u"}
	baseline := measure(10, func() { baselineEng.View(doc.Name, s, policy.Read) })

	for _, n := range configs {
		store := xmldoc.NewStore()
		store.Put(doc)
		base := policy.NewBase(nil)
		for i := 0; i < n; i++ {
			base.MustAdd(&policy.Policy{
				Name:    fmt.Sprintf("p%d", i),
				Subject: policy.SubjectSpec{Roles: []string{fmt.Sprintf("r%d", i)}},
				Object:  policy.ObjectSpec{Doc: doc.Name, Path: fmt.Sprintf("/hospital/patient[@id='p%d']", i)},
				Priv:    policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
			})
		}
		pub := authorx.NewPublisher(accessctl.NewEngine(store, base))
		d := measure(3, func() {
			if _, err := pub.Encrypt(doc.Name); err != nil {
				panic(err)
			}
		})
		t.add(fmt.Sprint(n), fmt.Sprint(pub.NumKeys(doc.Name)), dur(d), dur(baseline))
	}
	t.print()
}

func runE4(quick bool) {
	sizes := []int{16, 256, 1024}
	if quick {
		sizes = []int{16, 256}
	}
	signer, err := wsig.NewSigner("prov")
	if err != nil {
		panic(err)
	}
	dir := wsig.NewKeyDirectory()
	dir.RegisterSigner(signer)
	t := &table{header: []string{"elements", "pruned", "aux-hashes", "verify-time", "full-sig-baseline"}}
	for _, n := range sizes {
		doc := synth.Hospital(4, n)
		ss := merkle.Sign(doc, signer)
		full := measure(5, func() { merkle.VerifyFull(doc, ss, dir) })
		for _, prunePct := range []int{0, 50, 90} {
			keepEvery := 100 - prunePct
			view, proof := merkle.PruneWithProof(doc, func(nd *xmldoc.Node) bool {
				return nd.ID()*7%100 < keepEvery
			})
			if view == nil {
				continue
			}
			d := measure(5, func() {
				if err := merkle.VerifyView(view, proof, ss, dir); err != nil {
					panic(err)
				}
			})
			t.add(fmt.Sprint(n), fmt.Sprintf("%d%%", prunePct),
				fmt.Sprint(proof.NumAuxHashes()), dur(d), dur(full))
		}
	}
	t.print()
}

func runE5(quick bool) {
	entries := 500
	if quick {
		entries = 100
	}
	reg := uddi.NewRegistry(nil)
	keys := synth.Registry(5, reg, entries)
	req := &policy.Subject{ID: "requestor"}

	prov, err := uddi.NewProvider("prov")
	if err != nil {
		panic(err)
	}
	dir := wsig.NewKeyDirectory()
	dir.RegisterSigner(prov.Signer())
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name: "public", Subject: policy.SubjectSpec{IDs: []string{"*"}},
		Object: policy.ObjectSpec{Doc: "*"}, Priv: policy.Read,
		Sign: policy.Permit, Prop: policy.Cascade,
	})
	agency := uddi.NewUntrustedAgency(base)
	trusted := uddi.NewTrustedAgency(base)
	for i := 0; i < entries; i++ {
		e := synth.Entity(fmt.Sprintf("be-%05d", i), "logistics", 2)
		entry, err := prov.Sign(e)
		if err != nil {
			panic(err)
		}
		agency.Publish(entry)
		trusted.Publish(e)
	}
	i := 0
	t := &table{header: []string{"deployment", "operation", "latency"}}
	t.add("two-party", "get_businessDetail", dur(measure(50, func() {
		reg.GetBusinessDetail(req, keys[i%len(keys)])
		i++
	})))
	t.add("two-party", "find_business", dur(measure(10, func() {
		reg.FindBusiness(req, "logistics", nil)
	})))
	t.add("third-party trusted", "get (plaintext view)", dur(measure(50, func() {
		trusted.Query(req, keys[i%len(keys)])
		i++
	})))
	t.add("third-party untrusted", "get + Merkle verify", dur(measure(50, func() {
		res, err := agency.Query(req, keys[i%len(keys)])
		i++
		if err != nil {
			panic(err)
		}
		if err := res.Verify(dir); err != nil {
			panic(err)
		}
	})))
	t.print()
}

func runE6(quick bool) {
	n, items := 20000, 40
	if quick {
		n = 4000
	}
	baskets := synth.NewBaskets(6, n, items, 5)
	truth := mining.Apriori(baskets.Data, 0.15, 2)
	t := &table{header: []string{"p (retain prob)", "privacy", "precision", "recall", "support-err", "mine-time"}}
	exact := measure(3, func() { mining.Apriori(baskets.Data, 0.15, 2) })
	t.add("1.00 (no privacy)", "none", "1.000", "1.000", "0.0000", dur(exact))
	for _, p := range []float64{0.95, 0.80, 0.65} {
		rdz := mining.Randomize(baskets.Data, items, p, 6)
		var got []mining.FrequentItemset
		d := measure(1, func() {
			var err error
			got, err = mining.PrivateApriori(rdz, items, p, 0.15, 2)
			if err != nil {
				panic(err)
			}
		})
		q := mining.CompareMinings(truth, got)
		t.add(fmt.Sprintf("%.2f", p), fmt.Sprintf("%.0f%% flip", (1-p)*100),
			fmt.Sprintf("%.3f", q.Precision), fmt.Sprintf("%.3f", q.Recall),
			fmt.Sprintf("%.4f", q.MeanSupportErr), dur(d))
	}
	t.print()
}

func runE7(quick bool) {
	n := 8000
	if quick {
		n = 2000
	}
	baskets := synth.NewBaskets(7, n, 30, 5)
	central := mining.Apriori(baskets.Data, 0.2, 2)
	centralTime := measure(3, func() { mining.Apriori(baskets.Data, 0.2, 2) })
	t := &table{header: []string{"parties", "itemsets", "matches-centralized", "mine-time"}}
	t.add("1 (centralized)", fmt.Sprint(len(central)), "-", dur(centralTime))
	for _, parties := range []int{2, 4, 8} {
		chunk := len(baskets.Data) / parties
		ps := make([]*mining.Party, parties)
		for i := 0; i < parties; i++ {
			lo, hi := i*chunk, (i+1)*chunk
			if i == parties-1 {
				hi = len(baskets.Data)
			}
			ps[i] = mining.NewParty(fmt.Sprintf("p%d", i), baskets.Data[lo:hi])
		}
		var multi []mining.FrequentItemset
		d := measure(1, func() {
			var err error
			multi, err = mining.MultipartyApriori(ps, 0.2, 2)
			if err != nil {
				panic(err)
			}
		})
		match := "yes"
		if len(multi) != len(central) {
			match = "NO"
		} else {
			for i := range multi {
				if multi[i].Count != central[i].Count {
					match = "NO"
					break
				}
			}
		}
		t.add(fmt.Sprint(parties), fmt.Sprint(len(multi)), match, dur(d))
	}
	t.print()
}

func runE8(quick bool) {
	ruleCounts := []int{100, 1000, 5000}
	if quick {
		ruleCounts = []int{100, 1000}
	}
	t := &table{header: []string{"rules", "check-time", "queries", "blocked", "block-rate"}}
	for _, rules := range ruleCounts {
		pc := privacy.NewController()
		pc.Add(&privacy.Constraint{Name: "c", Attrs: []string{"identity", "disease"}, Class: privacy.Private})
		ic := inference.NewController(pc)
		ic.AddRule(&inference.Rule{Name: "reid", Body: []string{"name", "zip"}, Head: "identity"})
		for i := 0; i < rules; i++ {
			ic.AddRule(&inference.Rule{
				Name: fmt.Sprintf("r%d", i),
				Body: []string{fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1)},
				Head: fmt.Sprintf("d%d", i),
			})
		}
		// Timing on fresh subjects.
		i := 0
		d := measure(20, func() {
			ic.Check(&policy.Subject{ID: fmt.Sprintf("u%d", i)}, []string{"age", "zip"})
			i++
		})
		// Leak blocking on a mixed stream: every odd subject builds the
		// channel name→zip→disease across three queries.
		const subjects = 200
		blocked, total := 0, 0
		for s := 0; s < subjects; s++ {
			subj := &policy.Subject{ID: fmt.Sprintf("subj%d", s)}
			var queries [][]string
			if s%2 == 0 {
				queries = [][]string{{"age"}, {"zip"}, {"income"}}
			} else {
				queries = [][]string{{"name", "zip"}, {"age"}, {"disease"}}
			}
			for _, q := range queries {
				total++
				if !ic.Check(subj, q).Allowed {
					blocked++
				}
			}
		}
		t.add(fmt.Sprint(rules), dur(d), fmt.Sprint(total), fmt.Sprint(blocked),
			fmt.Sprintf("%.1f%%", 100*float64(blocked)/float64(total)))
	}
	t.print()
}

func runE9(quick bool) {
	sizes := []int{1000, 10000, 100000}
	if quick {
		sizes = []int{1000, 10000}
	}
	t := &table{header: []string{"triples", "guarded-query", "raw-query", "overhead"}}
	for _, n := range sizes {
		store := rdf.NewStore()
		for i := 0; i < n; i++ {
			store.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("res%d", i%1000)),
				P: rdf.NewIRI(fmt.Sprintf("p%d", i%20)),
				O: rdf.NewLiteral(fmt.Sprintf("v%d", i)),
			})
		}
		g := rdf.NewGuard(store)
		g.AddClassRule(&rdf.ClassRule{Pattern: rdf.Pattern{P: rdf.T(rdf.NewIRI("p1"))}, Level: rdf.Secret})
		c := rdf.NewClearance(&policy.Subject{ID: "u"}, rdf.Unclassified)
		i := 0
		guarded := measure(50, func() {
			g.Query(c, rdf.Pattern{S: rdf.T(rdf.NewIRI(fmt.Sprintf("res%d", i%1000)))})
			i++
		})
		raw := measure(50, func() {
			store.Query(rdf.Pattern{S: rdf.T(rdf.NewIRI(fmt.Sprintf("res%d", i%1000)))})
			i++
		})
		overhead := "-"
		if raw > 0 {
			overhead = fmt.Sprintf("%.2fx", float64(guarded)/float64(raw))
		}
		t.add(fmt.Sprint(n), dur(guarded), dur(raw), overhead)
	}
	t.print()
}

func runE10(quick bool) {
	rows := 5000
	if quick {
		rows = 1000
	}
	mk := func(withPolicies bool) (*reldb.SecureDB, *policy.Subject) {
		sdb := reldb.NewSecureDB(reldb.NewDatabase(), nil)
		dba := &policy.Subject{ID: "dba"}
		sdb.CreateTable(dba, "CREATE TABLE emp (id INT, dept TEXT, salary INT)")
		for i := 0; i < rows; i++ {
			sdb.DB().Exec(fmt.Sprintf("INSERT INTO emp VALUES (%d, 'd%d', %d)", i, i%20, i%200*1000))
		}
		sdb.Grants().Grant("dba", "u", sysr.Select, "emp", false)
		if withPolicies {
			pred := reldb.MustParse("SELECT * FROM emp WHERE salary >= 0").(*reldb.SelectStmt).Where
			sdb.AddRowPolicy(&reldb.RowPolicy{
				Name: "visible-all", Table: "emp",
				Subject: policy.SubjectSpec{IDs: []string{"u"}}, Pred: pred,
			})
		}
		return sdb, &policy.Subject{ID: "u"}
	}
	plain, u1 := mk(false)
	secured, u2 := mk(true)
	t := &table{header: []string{"variant", "query-time"}}
	t.add("privileges only", dur(measure(5, func() {
		plain.Exec(u1, "SELECT id FROM emp WHERE salary > 100000")
	})))
	t.add("privileges + row policy rewrite", dur(measure(5, func() {
		secured.Exec(u2, "SELECT id FROM emp WHERE salary > 100000")
	})))
	t.print()
}

func runE11(quick bool) {
	sizes := []int{1 << 10, 1 << 16, 1 << 20}
	if quick {
		sizes = []int{1 << 10, 1 << 16}
	}
	t := &table{header: []string{"message", "plaintext", "secure-channel", "slowdown"}}
	for _, size := range sizes {
		plain := channelThroughput(false, size)
		secure := channelThroughput(true, size)
		t.add(fmt.Sprintf("%dKB", size/1024),
			fmt.Sprintf("%.0f MB/s", plain), fmt.Sprintf("%.0f MB/s", secure),
			fmt.Sprintf("%.2fx", plain/secure))
	}
	t.print()
}

func channelThroughput(secure bool, size int) float64 {
	payload := make([]byte, size)
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	var send func([]byte) error
	if secure {
		pub, priv, _ := ed25519.GenerateKey(nil)
		done := make(chan *secchan.Channel, 1)
		go func() {
			ch, err := secchan.Server(sConn, priv)
			if err == nil {
				done <- ch
			}
		}()
		client, err := secchan.Client(cConn, pub)
		if err != nil {
			panic(err)
		}
		server := <-done
		go func() {
			for {
				if _, err := server.Receive(); err != nil {
					return
				}
			}
		}()
		send = client.Send
	} else {
		pc := secchan.NewPlainChannel(cConn)
		ps := secchan.NewPlainChannel(sConn)
		go func() {
			for {
				if _, err := ps.Receive(); err != nil {
					return
				}
			}
		}()
		send = pc.Send
	}
	d := measure(20, func() {
		if err := send(payload); err != nil {
			panic(err)
		}
	})
	return float64(size) / d.Seconds() / (1 << 20)
}

func runE12(quick bool) {
	t := &table{header: []string{"operation", "size", "latency"}}
	pref := &p3p.Preference{Rules: []p3p.PreferenceRule{
		{Name: "no-health-marketing", Categories: []p3p.Category{p3p.CategoryHealth}, Purposes: []p3p.Purpose{p3p.PurposeMarketing}},
		{Name: "short-retention", Categories: []p3p.Category{p3p.CategoryClickstream}, MaxRetention: 45},
	}}
	for _, n := range []int{100, 1000} {
		policies := make([]*p3p.Policy, n)
		for i := range policies {
			policies[i] = &p3p.Policy{
				Entity: fmt.Sprintf("svc%d", i),
				Statements: []p3p.Statement{{
					Purposes:   []p3p.Purpose{p3p.PurposeCurrent, p3p.PurposeMarketing},
					Recipients: []p3p.Recipient{p3p.RecipientOurs},
					Categories: []p3p.Category{p3p.CategoryOnline, p3p.CategoryClickstream},
					Retention:  30 + i%60,
				}},
			}
		}
		i := 0
		t.add("preference match", fmt.Sprintf("%d policies", n), dur(measure(100, func() {
			pref.Evaluate(policies[i%n])
			i++
		})))
	}
	for _, depth := range []int{2, 8} {
		d := p3p.NewDirectory()
		for i := 0; i <= depth; i++ {
			d.Advertise(fmt.Sprintf("s%d", i), &p3p.Policy{
				Entity: fmt.Sprintf("s%d", i),
				Statements: []p3p.Statement{{
					Purposes:   []p3p.Purpose{p3p.PurposeCurrent},
					Recipients: []p3p.Recipient{p3p.RecipientOurs},
					Categories: []p3p.Category{p3p.CategoryOnline},
					Retention:  100 - i,
				}},
			})
		}
		for i := 0; i < depth; i++ {
			if err := d.Delegate(fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", i+1)); err != nil {
				panic(err)
			}
		}
		t.add("delegation chain walk", fmt.Sprintf("depth %d", depth), dur(measure(100, func() {
			d.DelegationChain("s0")
		})))
	}
	t.print()
}

func runE13(quick bool) {
	patients := 300
	if quick {
		patients = 100
	}
	store := xmldoc.NewStore()
	doc := synth.Hospital(13, patients)
	store.Put(doc)
	base := policy.NewBase(nil)
	base.MustAdd(&policy.Policy{
		Name: "names-only", Subject: policy.SubjectSpec{IDs: []string{"u"}},
		Object: policy.ObjectSpec{Doc: doc.Name, Path: "//name"},
		Priv:   policy.Read, Sign: policy.Permit, Prop: policy.Cascade,
	})
	stack := core.NewSemanticStack(
		accessctl.NewEngine(store, base),
		rdf.NewGuard(rdf.NewStore()),
		ontology.NewMediator(ontology.New("o"), rdf.NewStore()),
	)
	u := &policy.Subject{ID: "u"}
	t := &table{header: []string{"strength", "layers-on", "xml-view-latency"}}
	for _, s := range []core.Strength{0, 30, 70, 100} {
		stack.SetStrength(s)
		cfg := stack.Config()
		on := 0
		for _, b := range []bool{cfg.EncryptTransport, cfg.EnforceXMLViews, cfg.VerifyCredentials, cfg.EnforceRDFLevels, cfg.InferenceControl} {
			if b {
				on++
			}
		}
		d := measure(10, func() {
			if _, err := stack.XMLView(doc.Name, u); err != nil {
				panic(err)
			}
		})
		t.add(fmt.Sprintf("%d%%", s), fmt.Sprintf("%d/5", on), dur(d))
	}
	t.print()
}

func runE14(quick bool) {
	bidders := 50
	if quick {
		bidders = 20
	}
	think := 2 * time.Millisecond
	t := &table{header: []string{"model", "bidders", "wall-time", "bids/s"}}

	run := func(name string) {
		db := reldb.NewDatabase()
		a, err := reldb.NewAuctionHouse(db)
		if err != nil {
			panic(err)
		}
		a.Open("item", "seller")
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < bidders; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if name == "open-bid" {
					time.Sleep(think) // thinking happens WITHOUT any lock
					a.PlaceBid("item", fmt.Sprintf("b%d", i), int64(i))
				} else {
					lk := reldb.NewLockingAuctionHouse(a, think)
					lk.PlaceBid("item", fmt.Sprintf("b%d", i), int64(i))
				}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		t.add(name, fmt.Sprint(bidders), dur(elapsed),
			fmt.Sprintf("%.0f", float64(bidders)/elapsed.Seconds()))
	}
	run("open-bid")
	run("locking (conventional)")
	t.print()
}

func runE16(quick bool) {
	sizes := []int{16, 64}
	if quick {
		sizes = []int{16}
	}
	build := func(classes, instances int) *rdf.Store {
		s := rdf.NewStore()
		for c := 1; c < classes; c++ {
			s.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("C%d", c)),
				P: rdf.NewIRI(rdf.RDFSSubClassOf),
				O: rdf.NewIRI(fmt.Sprintf("C%d", c/2)),
			})
		}
		for i := 0; i < instances; i++ {
			s.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("x%d", i)),
				P: rdf.NewIRI(rdf.RDFType),
				O: rdf.NewIRI(fmt.Sprintf("C%d", 1+i%(classes-1))),
			})
		}
		return s
	}
	t := &table{header: []string{"taxonomy", "variant", "infer-time", "leak-safe"}}
	for _, size := range sizes {
		label := fmt.Sprintf("%d classes, %d instances", size, size*4)
		plain := measure(2, func() { build(size, size*4).InferRDFS() })
		t.add(label, "plain", dur(plain), "NO (derived triples unlabeled)")
		guarded := measure(2, func() {
			s := build(size, size*4)
			g := rdf.NewGuard(s)
			g.AddClassRule(&rdf.ClassRule{
				Pattern: rdf.Pattern{S: rdf.T(rdf.NewIRI("C1"))},
				Level:   rdf.Secret,
			})
			g.InferRDFS()
		})
		t.add(label, "guarded (provenance-pinned)", dur(guarded), "yes")
	}
	t.print()
}

func runE15(quick bool) {
	sizes := []int{2, 8, 32}
	if quick {
		sizes = []int{2, 8}
	}
	t := &table{header: []string{"sources", "clearance", "reachable", "query-time"}}
	for _, nSources := range sizes {
		fed := federation.New()
		for i := 0; i < nSources; i++ {
			db := reldb.NewDatabase()
			db.Exec("CREATE TABLE local_cases (patient TEXT, disease TEXT)")
			for j := 0; j < 200; j++ {
				db.Exec(fmt.Sprintf("INSERT INTO local_cases VALUES ('p%d-%d', 'd%d')", i, j, j%5))
			}
			level := rdf.Unclassified
			if i%2 == 1 {
				level = rdf.Secret
			}
			src := federation.NewSource(fmt.Sprintf("s%02d", i), db, level)
			if err := src.ExportTable(&federation.Export{
				Virtual: "cases", Local: "local_cases", Columns: []string{"patient", "disease"},
			}); err != nil {
				panic(err)
			}
			if err := fed.AddSource(src); err != nil {
				panic(err)
			}
		}
		for _, c := range []struct {
			name  string
			level rdf.Level
			reach int
		}{
			{"secret", rdf.Secret, nSources},
			{"unclassified", rdf.Unclassified, nSources / 2},
		} {
			req := &federation.Requestor{Subject: &policy.Subject{ID: "r"}, Clearance: c.level}
			d := measure(10, func() {
				if _, err := fed.Query(context.Background(), req, "SELECT patient FROM cases WHERE disease = 'd1'"); err != nil {
					panic(err)
				}
			})
			t.add(fmt.Sprint(nSources), c.name, fmt.Sprintf("%d/%d", c.reach, nSources), dur(d))
		}
	}
	t.print()
}
