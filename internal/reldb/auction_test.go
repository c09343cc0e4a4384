package reldb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// auctionHouse is the paper's open-bid transaction model (§2.1), built on
// the engine's transactions: "various items may be sold through the
// Internet. In this case, the item should not be locked immediately when a
// potential buyer makes a bid. It has to be left open until several bids
// are received and the item is sold. That is, special transaction models
// are needed."
//
// Bids are short independent transactions appending to the bids table; the
// item row stays unlocked until close runs one atomic transaction that
// picks the winner. lockingAuction below is the conventional model that
// holds the item locked for the bidder's whole think time — the one the
// paper says does not fit the web.
type auctionHouse struct {
	db *Database
}

func newAuctionHouse(t *testing.T, db *Database) *auctionHouse {
	t.Helper()
	mustExec(t, db, "CREATE TABLE auction_items (item TEXT, seller TEXT, status TEXT, winner TEXT, price INT)")
	mustExec(t, db, "CREATE TABLE auction_bids (item TEXT, bidder TEXT, amount INT)")
	return &auctionHouse{db: db}
}

func (a *auctionHouse) open(item, seller string) error {
	_, err := a.db.Exec(fmt.Sprintf(
		"INSERT INTO auction_items VALUES (%s, %s, 'open', '', 0)", QuoteString(item), QuoteString(seller)))
	return err
}

// placeBid records a bid in its own short transaction. The item row is
// read (to check it is open) but not locked across the bidder's think time.
func (a *auctionHouse) placeBid(item, bidder string, amount int64) error {
	txn := a.db.Begin()
	res, err := txn.Exec("SELECT status FROM auction_items WHERE item = " + QuoteString(item))
	switch {
	case err != nil:
	case len(res.Rows) == 0:
		err = fmt.Errorf("no such auction item %s", item)
	case res.Rows[0][0].S != "open":
		err = fmt.Errorf("auction for %s is closed", item)
	default:
		_, err = txn.Exec(bidInsert(item, bidder, amount))
	}
	if err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

func bidInsert(item, bidder string, amount int64) string {
	return fmt.Sprintf("INSERT INTO auction_bids VALUES (%s, %s, %d)", QuoteString(item), QuoteString(bidder), amount)
}

// close atomically selects the highest bid, marks the item sold and records
// winner and price; an auction with no bids closes with an empty winner.
func (a *auctionHouse) close(item string) (winner string, price int64, err error) {
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
		winner, price, status = res.Rows[0][0].S, res.Rows[0][1].I, "sold"
	}
	upd, err := txn.Exec(fmt.Sprintf(
		"UPDATE auction_items SET status = %s, winner = %s, price = %d WHERE item = %s AND status = 'open'",
		QuoteString(status), QuoteString(winner), price, QuoteString(item)))
	if err != nil {
		return "", 0, err
	}
	if upd.Affected == 0 {
		err = fmt.Errorf("auction for %s is not open", item)
		return "", 0, err
	}
	if err = txn.Commit(); err != nil {
		return "", 0, err
	}
	return winner, price, nil
}

func (a *auctionHouse) bids(item string) (int, error) {
	res, err := a.db.Exec("SELECT bidder FROM auction_bids WHERE item = " + QuoteString(item))
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// lockingBid is the conventional model: the bid's transaction takes an
// exclusive lock on the items table and holds it for the bidder's think
// time before writing the bid, serializing every concurrent bidder.
func (a *auctionHouse) lockingBid(item, bidder string, amount int64, think time.Duration) error {
	txn := a.db.Begin()
	if _, err := txn.Exec("UPDATE auction_items SET status = 'open' WHERE item = " + QuoteString(item) + " AND status = 'open'"); err != nil {
		txn.Abort()
		return err
	}
	time.Sleep(think)
	if _, err := txn.Exec(bidInsert(item, bidder, amount)); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

func TestAuctionOpenBidModel(t *testing.T) {
	a := newAuctionHouse(t, NewDatabase())
	if err := a.open("painting", "seller1"); err != nil {
		t.Fatal(err)
	}
	// Concurrent bidders do not block each other (no item lock held).
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a.placeBid("painting", "bidder", int64(100+i))
		}(i)
	}
	wg.Wait()
	if n, _ := a.bids("painting"); n != 10 {
		t.Fatalf("bids = %d", n)
	}
	winner, price, err := a.close("painting")
	if err != nil {
		t.Fatal(err)
	}
	if winner != "bidder" || price != 109 {
		t.Errorf("winner=%s price=%d", winner, price)
	}
	// Closed auction rejects bids and re-close.
	if err := a.placeBid("painting", "late", 999); err == nil {
		t.Error("bid on closed auction accepted")
	}
	if _, _, err := a.close("painting"); err == nil {
		t.Error("double close accepted")
	}
	if err := a.placeBid("ghost", "x", 1); err == nil {
		t.Error("bid on unknown item accepted")
	}
}

func TestAuctionNoBids(t *testing.T) {
	a := newAuctionHouse(t, NewDatabase())
	a.open("dud", "seller")
	winner, price, err := a.close("dud")
	if err != nil {
		t.Fatal(err)
	}
	if winner != "" || price != 0 {
		t.Errorf("winner=%q price=%d", winner, price)
	}
}

// TestAuctionHostileNames: item, seller and bidder names are values, never
// statement text — a quote in a name is stored as written, and a name
// shaped like a predicate matches only the item it names.
func TestAuctionHostileNames(t *testing.T) {
	db := NewDatabase()
	a := newAuctionHouse(t, db)
	for _, item := range []string{"o'brien", "plain"} {
		if err := a.open(item, "o'seller"); err != nil {
			t.Fatalf("open(%q): %v", item, err)
		}
	}
	if err := a.placeBid("o'brien", "d'arcy', 1000) --", 7); err != nil {
		t.Fatal(err)
	}
	if err := a.lockingBid("o'brien", "x'y", 5, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := a.bids("o'brien"); err != nil || n != 2 {
		t.Fatalf("bids(o'brien) = %d, %v; want 2", n, err)
	}
	if _, _, err := a.close("z' OR item != '"); err == nil {
		t.Fatal("closing an item nobody opened succeeded")
	}
	winner, price, err := a.close("o'brien")
	if err != nil || winner != "d'arcy', 1000) --" || price != 7 {
		t.Fatalf("close(o'brien) = %q, %d, %v", winner, price, err)
	}
	got := fmt.Sprint(mustExec(t, db, "SELECT item, seller, status, winner FROM auction_items ORDER BY item").Rows)
	if want := "[[o'brien o'seller sold d'arcy', 1000) --] [plain o'seller open ]]"; got != want {
		t.Fatalf("items = %s, want %s", got, want)
	}
}

// TestLockingAuctionSerializesBidders is E14's shape: under the locking
// model concurrent bidders queue behind the item lock, so the wall time is
// at least bidders × think time.
func TestLockingAuctionSerializesBidders(t *testing.T) {
	a := newAuctionHouse(t, NewDatabase())
	a.open("vase", "seller")

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a.lockingBid("vase", "b", int64(i), 30*time.Millisecond)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 4 bidders × 30ms think time, fully serialized ≈ 120ms minimum.
	if elapsed < 100*time.Millisecond {
		t.Errorf("locking bids not serialized: %v", elapsed)
	}
	if n, _ := a.bids("vase"); n != 4 {
		t.Errorf("bids = %d", n)
	}
}
