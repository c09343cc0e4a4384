package reldb

import (
	"fmt"
	"time"
)

// AuctionHouse implements the paper's open-bid transaction model (§2.1):
// "various items may be sold through the Internet. In this case, the item
// should not be locked immediately when a potential buyer makes a bid. It
// has to be left open until several bids are received and the item is
// sold. That is, special transaction models are needed."
//
// Bids are short independent transactions appending to the bids table; the
// item row stays unlocked until Close runs one atomic transaction that
// picks the winner. LockingAuctionHouse below is the conventional baseline
// that holds the item locked for the bidder's whole think time — the model
// the paper says does not fit the web.
type AuctionHouse struct {
	db *Database
}

// NewAuctionHouse creates the auction schema in the database.
func NewAuctionHouse(db *Database) (*AuctionHouse, error) {
	stmts := []string{
		"CREATE TABLE auction_items (item TEXT, seller TEXT, status TEXT, winner TEXT, price INT)",
		"CREATE TABLE auction_bids (item TEXT, bidder TEXT, amount INT)",
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return nil, err
		}
	}
	return &AuctionHouse{db: db}, nil
}

// Open lists an item for sale.
func (a *AuctionHouse) Open(item, seller string) error {
	_, err := a.db.Exec(fmt.Sprintf(
		"INSERT INTO auction_items VALUES (%s, %s, 'open', '', 0)", QuoteString(item), QuoteString(seller)))
	return err
}

// PlaceBid records a bid in its own short transaction. The item row is
// read (to check it is open) but not locked across the bidder's think
// time.
func (a *AuctionHouse) PlaceBid(item, bidder string, amount int64) error {
	txn := a.db.Begin()
	res, err := txn.Exec("SELECT status FROM auction_items WHERE item = " + QuoteString(item))
	if err != nil {
		txn.Abort()
		return err
	}
	if len(res.Rows) == 0 {
		txn.Abort()
		return fmt.Errorf("reldb: no such auction item %s", item)
	}
	if res.Rows[0][0].S != "open" {
		txn.Abort()
		return fmt.Errorf("reldb: auction for %s is closed", item)
	}
	if _, err := txn.Exec(bidInsert(item, bidder, amount)); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

// bidInsert is the statement that records one bid.
func bidInsert(item, bidder string, amount int64) string {
	return fmt.Sprintf("INSERT INTO auction_bids VALUES (%s, %s, %d)", QuoteString(item), QuoteString(bidder), amount)
}

// Close atomically selects the highest bid, marks the item sold and
// records winner and price. It returns the winner and price; an auction
// with no bids closes with an empty winner.
func (a *AuctionHouse) Close(item string) (winner string, price int64, err error) {
	txn := a.db.Begin()
	defer func() {
		if err != nil {
			txn.Abort()
		}
	}()
	res, err := txn.Exec("SELECT bidder, amount FROM auction_bids WHERE item = " + QuoteString(item) + " ORDER BY amount DESC LIMIT 1")
	if err != nil {
		return "", 0, err
	}
	status := "closed"
	if len(res.Rows) > 0 {
		winner = res.Rows[0][0].S
		price = res.Rows[0][1].I
		status = "sold"
	}
	upd, err := txn.Exec(fmt.Sprintf(
		"UPDATE auction_items SET status = %s, winner = %s, price = %d WHERE item = %s AND status = 'open'",
		QuoteString(status), QuoteString(winner), price, QuoteString(item)))
	if err != nil {
		return "", 0, err
	}
	if upd.Affected == 0 {
		err = fmt.Errorf("reldb: auction for %s is not open", item)
		return "", 0, err
	}
	if cerr := txn.Commit(); cerr != nil {
		return "", 0, cerr
	}
	return winner, price, nil
}

// Bids returns the number of bids recorded for an item.
func (a *AuctionHouse) Bids(item string) (int, error) {
	res, err := a.db.Exec("SELECT bidder FROM auction_bids WHERE item = " + QuoteString(item))
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// LockingAuctionHouse is the conventional baseline: each bid opens a
// transaction that takes an exclusive lock on the items table and holds it
// for the bidder's think time before writing the bid — serializing every
// concurrent bidder. Experiment E14 measures the throughput gap.
type LockingAuctionHouse struct {
	inner *AuctionHouse
	// ThinkTime is how long a bidder "inspects" the item while holding the
	// lock.
	ThinkTime time.Duration
}

// NewLockingAuctionHouse wraps an auction house with locking-bid
// semantics.
func NewLockingAuctionHouse(a *AuctionHouse, think time.Duration) *LockingAuctionHouse {
	return &LockingAuctionHouse{inner: a, ThinkTime: think}
}

// PlaceBid locks the item (table) for the whole think time.
func (l *LockingAuctionHouse) PlaceBid(item, bidder string, amount int64) error {
	txn := l.inner.db.Begin()
	// Exclusive lock on the items table for the duration of the "visit".
	if _, err := txn.Exec("UPDATE auction_items SET status = 'open' WHERE item = " + QuoteString(item) + " AND status = 'open'"); err != nil {
		txn.Abort()
		return err
	}
	time.Sleep(l.ThinkTime)
	if _, err := txn.Exec(bidInsert(item, bidder, amount)); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}
