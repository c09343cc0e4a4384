package main

import (
	"fmt"
	"math/rand"
	"net/url"

	"webdbsec/internal/wsa"
	"webdbsec/internal/xmldoc"
)

// request is one HTTP request the generator can send, and what the
// in-process replay needs to make the same call without HTTP.
type request struct {
	path  string // /query, /exec, or / for the envelope endpoint
	body  string // form-encoded fields, or the XML envelope
	token bool   // rides the connection's rolling single-use token
	// class names the request's shape and fixes the status it must get:
	// point, range, wide and inquiry 200; update 200 with exactly one row;
	// deny (ungranted subject) and infer-deny (inference controller) 401 or
	// 403; fault (unknown key) any other 4xx.
	class string
	// slot indexes the oracle vector. Requests that must get the same reply
	// share a slot; an update has none (-1) because its reply is fixed.
	slot int

	subject string
	roles   []string
	sql     string
	key     string // businessKey, or the patient an update touches
	zip     string // the value an update writes
}

// workload is one named traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// bin and args start the server; args gets the fresh data directory.
	bin       string
	args      func(dataDir string) []string
	readyPath string
	durable   bool
	tokens    bool
	writes    bool // has UPDATEs: the untraced run ends with the kill-and-restart check
	people    int
	// newChecker picks the workload's output checker; serverLog is where a
	// uddiserver printed its provider's key.
	newChecker func(serverLog string) (checker, error)
	// rate is the paced segments' fixed arrival rate in ops per second, set
	// at about a third of the seed commit's closed-loop ops_per_s on the
	// 2-core box the benchmark was defined on, then frozen: changing it
	// changes what lat_p50_ms and lat_p95_ms mean.
	rate float64
	// build makes the distinct requests, one representative per oracle slot
	// in warm-up order, and a sampler for the op stream.
	build func(rng *rand.Rand) (reps []*request, next func() *request)
}

const (
	entries = 200 // uddi demo entries
	senders = 64  // uddi requestor identities
)

var workloads = []*workload{
	{
		name: "query_token_mem",
		why: "in-memory 5,000-row scans behind rolling auth tokens, 64 texts inside the parse cache: " +
			"reldb and authtoken do the work, so scan/parse/token changes show here and audit/WAL changes must not",
		bin:        "securedb",
		args:       func(string) []string { return []string{"-people", "5000"} },
		readyPath:  "/explain?sql=SELECT+age+FROM+patients",
		tokens:     true,
		people:     5000,
		newChecker: func(string) (checker, error) { return exactOutcome, nil },
		rate:       400,
		build: func(rng *rand.Rand) ([]*request, func() *request) {
			t := newReadTable(5000, 45, 13, 6, true)
			return t.reps, t.sampler(rng, true)
		},
	},
	{
		name: "query_form_durable",
		why: "200-row reads, form-field subjects, 2,000 texts (8x the parse cache), -walsync always: " +
			"one audit fsync per read dominates, so audit/wal changes show here and reldb/authtoken changes must not",
		bin:        "securedb",
		args:       durableArgs,
		readyPath:  "/explain?sql=SELECT+age+FROM+patients",
		durable:    true,
		people:     200,
		newChecker: func(string) (checker, error) { return exactOutcome, nil },
		rate:       600,
		build: func(rng *rand.Rand) ([]*request, func() *request) {
			t := newReadTable(200, 1400, 400, 200, false)
			return t.reps, t.sampler(rng, false)
		},
	},
	{
		name: "mixed_rw_durable",
		why: "70% reads beside 30% single-row UPDATEs on the same wal/audit/MVCC layers, ending in kill-and-restart: " +
			"a read gain paid for with write cost, bytes or recovery time shows here",
		bin:        "securedb",
		args:       durableArgs,
		readyPath:  "/explain?sql=SELECT+age+FROM+patients",
		durable:    true,
		writes:     true,
		people:     200,
		newChecker: func(string) (checker, error) { return mixedOutcome, nil },
		rate:       500,
		build: func(rng *rand.Rand) ([]*request, func() *request) {
			t := newReadTable(200, 1400, 400, 200, false)
			read := t.sampler(rng, false)
			return t.reps, func() *request {
				if rng.Float64() < 0.30 {
					return newUpdate(1+rng.Intn(200), fmt.Sprintf("%05d", rng.Intn(100000)))
				}
				return read()
			}
		},
	},
	{
		name: "uddi_untrusted",
		why: "the other binary: Merkle-authenticated inquiries the requestor verifies, 12,800 decision keys, 4,096 cache entries: " +
			"wsa/uddi/decisioncache/merkle/wsig do the work; reldb/wal/audit must not move it",
		bin: "uddiserver",
		args: func(string) []string {
			return []string{"-mode", "untrusted", "-demo", fmt.Sprint(entries), "-tokenttl", "0"}
		},
		readyPath: "/describe",
		newChecker: func(serverLog string) (checker, error) {
			dir, err := providerDirectory(serverLog)
			if err != nil {
				return nil, err
			}
			return inquiryChecker(dir, nil), nil
		},
		rate:  700,
		build: buildInquiries,
	},
}

func durableArgs(dataDir string) []string {
	return []string{"-people", "200", "-data", dataDir, "-walsync", "always", "-tokenttl", "0"}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func form(subject string, roles []string, sql string) string {
	v := url.Values{"subject": {subject}, "sql": {sql}}
	if len(roles) > 0 {
		v.Set("roles", roles[0])
	}
	return v.Encode()
}

func personName(i int) string { return fmt.Sprintf("person-%04d", i) }

// readTable is the distinct SELECTs of a securedb workload, by class.
type readTable struct {
	reps                      []*request
	point, ranged, wide, deny []*request
}

// pointProjections never name disease: a point lookup is always permitted.
var pointProjections = []string{"name, zip", "name, age", "name, zip, age", "zip, age", "zip", "age", "name"}

// wideProjections all name disease beside name or zip, so the privacy
// controller masks it on every row and the query stays permitted.
var wideProjections = []string{"*", "name, zip, age, disease", "name, age, disease", "zip, age, disease"}

// newReadTable builds nPoint point lookups by name, nRange age ranges with
// ORDER BY and LIMIT, and nWide wide projections as ana/analyst, then 16
// point lookups as the ungranted mallory. The first text releases name and
// zip, so from the first warm-up request on ana's inference history holds
// identity and every fifth range text (age, disease) is refused by the
// inference controller; every other text is permitted. No column is indexed,
// so every SELECT scans the table.
func newReadTable(people, nPoint, nRange, nWide int, token bool) *readTable {
	t := &readTable{}
	add := func(class, subject string, roles []string, sql string, tok bool) *request {
		r := &request{path: "/query", body: form(subject, roles, sql), token: tok, class: class,
			slot: len(t.reps), subject: subject, roles: roles, sql: sql}
		t.reps = append(t.reps, r)
		return r
	}
	analyst := []string{"analyst"}
	var pointSQL []string
	for i := 0; i < nPoint; i++ {
		person := 1 + (i/len(pointProjections)*733)%people // 733 is coprime to both table sizes
		sql := fmt.Sprintf("SELECT %s FROM patients WHERE name = '%s'",
			pointProjections[i%len(pointProjections)], personName(person))
		pointSQL = append(pointSQL, sql)
		t.point = append(t.point, add("point", "ana", analyst, sql, token))
	}
	for j := 0; j < nRange; j++ {
		lo, width := 18+j%70, 3+j/70
		class, cols := "range", "name, age"
		if j%5 == 4 {
			class, cols = "infer-deny", "age, disease"
		}
		sql := fmt.Sprintf("SELECT %s FROM patients WHERE age >= %d AND age < %d ORDER BY age LIMIT 20", cols, lo, lo+width)
		t.ranged = append(t.ranged, add(class, "ana", analyst, sql, token))
	}
	for k := 0; k < nWide; k++ {
		// Hundreds of rows of 5,000; most of the table of 200.
		from, variants := 80+k%8, k/8
		if people < 1000 {
			from, variants = 18+k%50, k/50
		}
		sql := fmt.Sprintf("SELECT %s FROM patients WHERE age >= %d", wideProjections[variants%len(wideProjections)], from)
		t.wide = append(t.wide, add("wide", "ana", analyst, sql, token))
	}
	for i := 0; i < 16 && i < len(pointSQL); i++ {
		t.deny = append(t.deny, add("deny", "mallory", nil, pointSQL[i], false))
	}
	return t
}

// sampler draws the read mix: 5% from mallory, the rest 70% point, 20%
// range, 10% wide; within a class Zipf(1.1) over its texts, or uniform.
func (t *readTable) sampler(rng *rand.Rand, zipf bool) func() *request {
	pick := func(class []*request) func() *request {
		if zipf {
			z := newZipf(rng, len(class))
			return func() *request { return class[z()] }
		}
		return func() *request { return class[rng.Intn(len(class))] }
	}
	point, ranged, wide := pick(t.point), pick(t.ranged), pick(t.wide)
	return func() *request {
		if rng.Float64() < 0.05 {
			return t.deny[rng.Intn(len(t.deny))]
		}
		switch u := rng.Float64(); {
		case u < 0.70:
			return point()
		case u < 0.90:
			return ranged()
		default:
			return wide()
		}
	}
}

// newUpdate is a single-row UPDATE by dba/analyst: dba owns the table, the
// analyst role makes the row policy admit every row.
func newUpdate(person int, zip string) *request {
	roles := []string{"analyst"}
	sql := fmt.Sprintf("UPDATE patients SET zip = '%s' WHERE name = '%s'", zip, personName(person))
	return &request{path: "/exec", body: form("dba", roles, sql), class: "update", slot: -1,
		subject: "dba", roles: roles, sql: sql, key: personName(person), zip: zip}
}

func entryKey(i int) string { return fmt.Sprintf("be-%05d", i) }

// buildInquiries makes the uddi_untrusted stream: 95% query_authenticated
// with entries Zipf(1.1) over 200 and senders Zipf(1.1) over 64 identities,
// odd ones holding the partner role, and 5% unknown keys. The policy base
// decides by role alone, so the expected view depends only on (partner,
// entry): 400 oracle slots, plus one for the unknown-key fault.
func buildInquiries(rng *rand.Rand) ([]*request, func() *request) {
	inquiry := func(sender int, key, class string, slot int) *request {
		r := &request{path: "/", class: class, slot: slot, subject: fmt.Sprintf("req-%02d", sender), key: key}
		if sender%2 == 1 {
			r.roles = []string{"partner"}
		}
		b := xmldoc.NewBuilder("req", "queryAuthenticated")
		b.Attrib("businessKey", key)
		r.body = (&wsa.Envelope{Operation: "query_authenticated", Sender: r.subject, Roles: r.roles, Body: b.Freeze()}).Encode()
		return r
	}
	var reps []*request
	for partner := 0; partner < 2; partner++ {
		for e := 0; e < entries; e++ {
			reps = append(reps, inquiry(partner, entryKey(e), "inquiry", partner*entries+e))
		}
	}
	faultSlot := len(reps)
	reps = append(reps, inquiry(0, "be-90000", "fault", faultSlot))

	known := map[[2]int]*request{}
	entry, sender := newZipf(rng, entries), newZipf(rng, senders)
	return reps, func() *request {
		if rng.Float64() < 0.05 {
			return inquiry(rng.Intn(senders), fmt.Sprintf("be-9%04d", rng.Intn(10000)), "fault", faultSlot)
		}
		e, s := entry(), sender()
		r := known[[2]int{s, e}]
		if r == nil {
			r = inquiry(s, entryKey(e), "inquiry", (s%2)*entries+e)
			known[[2]int{s, e}] = r
		}
		return r
	}
}
