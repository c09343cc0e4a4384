// Command refserver is the benchmark's yardstick for the speed of the box: a
// small HTTP service whose work per request never changes. It imports only
// the standard library, so no change to the repository's code can move it.
// The generator sends it one request beside every request of a service
// segment, and reports the real server's latency and CPU time per request as
// multiples of this one's, measured in the same seconds. See "Why relative"
// in ../README.md.
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"net/http"
)

type row struct {
	name, zip string
	age       int
}

// rows is large enough that a scan streams through memory rather than sit in
// the L1 cache, as the real servers' table scans do.
const rows = 20000

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	flag.Parse()

	table := make([]row, rows)
	for i := range table {
		table[i] = row{fmt.Sprintf("person-%05d", i), fmt.Sprintf("%05d", i*7919%100000), 18 + i*31%70}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ready", func(http.ResponseWriter, *http.Request) {})
	// /work parses a form, scans the table for one name and one age, formats
	// the matches and their digest: parsing, scanning, allocating and hashing
	// in about the proportions of a securedb query or a uddiserver inquiry.
	mux.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		name := r.PostFormValue("name")
		var out bytes.Buffer
		for _, p := range table {
			if p.name == name || p.age == 18 && out.Len() < 4096 {
				fmt.Fprintf(&out, "%s\t%s\t%d\n", p.name, p.zip, p.age)
			}
		}
		fmt.Fprintf(&out, "%x\n", sha256.Sum256(out.Bytes()))
		w.Write(out.Bytes()) // a client that hung up gets nothing, and needs nothing
	})
	log.Fatal(http.ListenAndServe(*addr, mux))
}
