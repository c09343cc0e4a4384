# failsummary.awk reads a go test log and prints, for each test that
# failed, its name and the last lines of its output, so a flaky test names
# itself instead of being lost in the scroll. It reads plain and -v logs
# alike: a line of output belongs to the test named by the latest
# "=== RUN/CONT/NAME/PAUSE" line (-v, where output comes before the verdict)
# or "--- FAIL/PASS/SKIP" line (plain, where it comes after). A failure no
# test owns — a build error, a timeout — prints the log's last lines.
#
#   awk -f scripts/failsummary.awk .testlogs/race.log
BEGIN { keep = 20 }
{ all[++lines % keep] = $0 }
/^=== (RUN|CONT|NAME|PAUSE) / { cur = $3; next }
/^ *--- (FAIL|PASS|SKIP): / {
	cur = $3
	if ($2 == "FAIL:") failed[++nfailed] = cur
	next
}
/^(ok|FAIL|PASS|\?)([ \t]|$)/ { cur = ""; next }
cur != "" { out[cur, ++n[cur] % keep] = $0 }
END {
	for (i = 1; i <= nfailed; i++) {
		name = failed[i]
		print "--- FAIL: " name " (last lines of its output)"
		for (j = (n[name] > keep ? n[name] - keep + 1 : 1); j <= n[name]; j++) print out[name, j % keep]
	}
	if (nfailed == 0) {
		print "--- no failing test named; the log ends:"
		for (j = (lines > keep ? lines - keep + 1 : 1); j <= lines; j++) print all[j % keep]
	}
}
