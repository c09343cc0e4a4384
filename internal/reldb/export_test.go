package reldb

// CountingPred is countingExpr for the external tests: a predicate that
// holds on every row and counts the rows its matcher is asked about.
func CountingPred(calls *int) Expr { return countingExpr{calls: calls} }
