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
// is enforced on INSERT and UPDATE, inside and outside transactions (the
// check runs before the write, so a violating statement fails atomically).
// NOT NULL is a declarative special case.

// CheckConstraint is one named table predicate.
type CheckConstraint struct {
	Name  string
	Table string
	Check Expr
}

// constraintSet holds a database's constraints; attached lazily.
type constraintSet struct {
	mu     sync.RWMutex
	checks []*CheckConstraint
	// notNull: table -> column names that must not be NULL.
	notNull map[string]map[string]bool
}

func (db *Database) constraints() *constraintSet {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.cons == nil {
		db.cons = &constraintSet{notNull: make(map[string]map[string]bool)}
	}
	return db.cons
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
	var violation error
	t.Scan(func(id int64, r Row) bool {
		if !holds(r) {
			violation = fmt.Errorf("reldb: existing row %d violates constraint %s", id, c.Name)
			return false
		}
		return true
	})
	if violation != nil {
		return violation
	}
	cs := db.constraints()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.checks = append(cs.checks, c)
	return nil
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
	var violation error
	t.Scan(func(id int64, r Row) bool {
		if r[ci].IsNull() {
			violation = fmt.Errorf("reldb: existing row %d has NULL in %s.%s", id, table, column)
			return false
		}
		return true
	})
	if violation != nil {
		return violation
	}
	cs := db.constraints()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	m := cs.notNull[table]
	if m == nil {
		m = make(map[string]bool)
		cs.notNull[table] = m
	}
	m[column] = true
	return nil
}

// validateRow enforces the table's constraints on a prospective row.
func (db *Database) validateRow(table string, schema *Schema, r Row) error {
	db.mu.Lock()
	cs := db.cons
	db.mu.Unlock()
	if cs == nil {
		return nil
	}
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	for col := range cs.notNull[table] {
		ci := schema.ColIndex(col)
		if ci >= 0 && r[ci].IsNull() {
			return fmt.Errorf("reldb: column %s.%s is NOT NULL", table, col)
		}
	}
	for _, c := range cs.checks {
		if c.Table != table {
			continue
		}
		ok, err := c.Check.Eval(schema, r)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("reldb: constraint %s violated", c.Name)
		}
	}
	return nil
}
