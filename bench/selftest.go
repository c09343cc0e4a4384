package main

import (
	"bytes"
	"fmt"
)

// selfTest feeds the output oracle three corrupted replies and fails unless
// each is caught: a check that cannot fail checks nothing.
func selfTest() error {
	read := &request{class: "point", slot: 0}
	body := []byte("name\tzip\nperson-0001\t10101\n")
	oracle := []string{exactOutcome(read, 200, body)}
	caught := func(check checker, r *request, status int, b []byte) bool {
		return check(r, status, b) != expected(r, oracle)
	}
	if caught(exactOutcome, read, 200, body) {
		return fmt.Errorf("selftest: the intact reply was rejected")
	}
	flipped := bytes.Clone(body)
	flipped[len(flipped)-3] ^= 1
	if !caught(exactOutcome, read, 200, flipped) {
		return fmt.Errorf("selftest: a flipped body byte went unnoticed")
	}
	if !caught(exactOutcome, read, 403, body) || !caught(mixedOutcome, read, 403, body) {
		return fmt.Errorf("selftest: a wrong status went unnoticed")
	}

	// A real authenticated result from an in-process agency, then the same
	// reply with one character of the view changed: the Merkle proof no
	// longer leads to the hash the provider signed.
	st, err := newUDDIStack(nil)
	if err != nil {
		return err
	}
	reps, _ := buildInquiries(newRNG(1, "selftest"))
	inquiry := reps[0]
	var n replayCounts
	status, reply := st.serve(inquiry, &n)
	check := inquiryChecker(st.dir, nil)
	oracle = make([]string, len(reps))
	oracle[inquiry.slot] = check(inquiry, status, reply)
	if !statusFits("inquiry", oracle[inquiry.slot]) {
		return fmt.Errorf("selftest: the intact authenticated result was rejected: %s", oracle[inquiry.slot])
	}
	tampered := bytes.Replace(reply, []byte("logistics"), []byte("logistiks"), 1)
	if bytes.Equal(tampered, reply) || !caught(check, inquiry, status, tampered) {
		return fmt.Errorf("selftest: a tampered Merkle view went unnoticed")
	}
	if out := check(inquiry, status, tampered); len(out) < 10 || out[:10] != "unverified" {
		return fmt.Errorf("selftest: the tampered view was rejected, but not by the Merkle check: %s", out)
	}
	return nil
}
