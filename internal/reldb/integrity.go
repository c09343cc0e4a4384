package reldb

import (
	"fmt"
	"sync"
)

// Integrity constraints. §2.1: "Maintaining the integrity of the data is
// critical. Since the data may originate from multiple sources around the
// world, it will be difficult to keep tabs on the accuracy of the data.
// Appropriate data quality maintenance techniques need thus be developed."
// And §3.1: "the transaction will have to ensure that the integrity as
// well as security constraints are satisfied."
//
// A CheckConstraint is a predicate every row of a table must satisfy; it
// is enforced on INSERT and UPDATE, inside and outside transactions (every
// row a statement would write is checked before it writes any, so a
// violating statement fails atomically). NOT NULL is a declarative special
// case. Each constraint is bound to its table's schema once, when it is
// added — a table's schema never changes.

// CheckConstraint is one named table predicate.
type CheckConstraint struct {
	Name  string
	Table string
	Check Expr
}

// constraintSet holds a database's constraints by table.
type constraintSet struct {
	mu sync.RWMutex
	// byTable maps a table to the checks every row written into it must
	// pass, in the order they were added.
	byTable map[string][]rowCheck // seclint:guardedby mu
}

// rowCheck is one constraint bound to its table's schema: the predicate a
// row must satisfy, and the error a row that does not gets.
type rowCheck struct {
	holds     matcher
	violation error
}

// add installs a bound check for table, after validating the table's
// current rows against it.
func (cs *constraintSet) add(t *Table, c rowCheck) error {
	var violation error
	t.Scan(func(id int64, r Row) bool {
		if !c.holds(r) {
			violation = fmt.Errorf("%w (existing row %d)", c.violation, id)
			return false
		}
		return true
	})
	if violation != nil {
		return violation
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.byTable == nil {
		cs.byTable = make(map[string][]rowCheck)
	}
	cs.byTable[t.Name] = append(cs.byTable[t.Name], c)
	return nil
}

// AddCheck installs a CHECK constraint. Existing rows are validated first:
// a constraint the current data violates is rejected.
//
// seclint:exempt schema administration on the trusted setup path, not a data entry point
func (db *Database) AddCheck(c *CheckConstraint) error {
	if c.Name == "" || c.Table == "" || c.Check == nil {
		return fmt.Errorf("reldb: check constraint needs a name, table and predicate")
	}
	t, ok := db.Table(c.Table)
	if !ok {
		return fmt.Errorf("reldb: unknown table %s", c.Table)
	}
	holds, err := c.Check.bind(&t.Schema)
	if err != nil {
		return err
	}
	return db.cons.add(t, rowCheck{holds, fmt.Errorf("reldb: constraint %s violated", c.Name)})
}

// AddNotNull marks a column NOT NULL. Existing NULLs are rejected.
//
// seclint:exempt schema administration on the trusted setup path, not a data entry point
func (db *Database) AddNotNull(table, column string) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("reldb: unknown table %s", table)
	}
	ci := t.Schema.ColIndex(column)
	if ci < 0 {
		return fmt.Errorf("reldb: table %s has no column %s", table, column)
	}
	return db.cons.add(t, rowCheck{
		holds:     func(r Row) bool { return !r[ci].IsNull() },
		violation: fmt.Errorf("reldb: column %s.%s is NOT NULL", table, column),
	})
}

// validateRow checks a row a statement is about to write into tbl against
// the table's schema and constraints.
func (db *Database) validateRow(tbl *Table, r Row) error {
	if err := tbl.Schema.CheckRow(r); err != nil {
		return err
	}
	db.cons.mu.RLock()
	defer db.cons.mu.RUnlock()
	for _, c := range db.cons.byTable[tbl.Name] {
		if !c.holds(r) {
			return c.violation
		}
	}
	return nil
}
